// Package attest implements the end-to-end remote attestation the
// paper develops (§IV-C): a hardware root of trust, a measured secure
// boot chain, and a nonce challenge-response protocol between a
// verifier and an edge device, run over TCP. It is the trust anchor
// the PAEB use case requires before a car offloads raw sensor data to
// an edge station (§V-A).
package attest

import (
	"bufio"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// HandshakeTimeout bounds one attestation exchange on the prover side.
// Without it an accepted connection that never sends a challenge (a
// half-dead verifier, a port scanner) would pin a goroutine forever.
const HandshakeTimeout = 10 * time.Second

// maxLine bounds one protocol message: a challenge is about 60 bytes
// and the evidence JSON well under 1 KiB.
const maxLine = 4 << 10

// readLine reads one newline-terminated message of at most maxLine
// bytes and refuses a longer one, so a peer that streams bytes without
// a newline costs a bounded buffer, not everything it sends before the
// deadline.
func readLine(r io.Reader) ([]byte, error) {
	line, err := bufio.NewReader(io.LimitReader(r, maxLine)).ReadBytes('\n')
	if err == io.EOF && len(line) == maxLine {
		return nil, fmt.Errorf("attest: message longer than %d bytes", maxLine)
	}
	return line, err
}

// BootStage is one measured stage of the boot chain.
type BootStage struct {
	Name  string
	Image []byte
}

// measureChain computes the chained measurement of a secure boot:
// m_0 = H(stage_0), m_i = H(m_{i-1} || H(stage_i)).
func measureChain(stages []BootStage) [32]byte {
	var m [32]byte
	for i, s := range stages {
		img := sha256.Sum256(s.Image)
		if i == 0 {
			m = sha256.Sum256(img[:])
			continue
		}
		h := sha256.New()
		h.Write(m[:])
		h.Write(img[:])
		copy(m[:], h.Sum(nil))
	}
	return m
}

// RootOfTrust is the manufacturer key that endorses device keys.
type RootOfTrust struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewRootOfTrust generates a fresh root key pair.
func NewRootOfTrust() (*RootOfTrust, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &RootOfTrust{pub: pub, priv: priv}, nil
}

// Public returns the root verification key (pre-shared with verifiers).
func (r *RootOfTrust) Public() ed25519.PublicKey { return r.pub }

// endorse signs a device public key, producing its certificate.
func (r *RootOfTrust) endorse(devicePub ed25519.PublicKey) []byte {
	return ed25519.Sign(r.priv, devicePub)
}

// Device is one attestable edge node.
type Device struct {
	Name string

	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	cert []byte // root signature over pub

	measurement [32]byte
	// tampered simulates a compromised boot stage for negative tests.
	tampered bool
}

// NewDevice provisions a device: generates its key, endorses it with
// the root, and measures the boot chain.
func NewDevice(name string, root *RootOfTrust, boot []BootStage) (*Device, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Device{
		Name:        name,
		pub:         pub,
		priv:        priv,
		cert:        root.endorse(pub),
		measurement: measureChain(boot),
	}, nil
}

// Measurement returns the device's boot measurement.
func (d *Device) Measurement() [32]byte { return d.measurement }

// Tamper simulates a supply-chain or runtime compromise that changes
// the effective measurement reported by honest hardware.
func (d *Device) Tamper() {
	d.tampered = true
	d.measurement[0] ^= 0xff
}

// Evidence is the attestation response.
type Evidence struct {
	Device      string   `json:"device"`
	Measurement [32]byte `json:"measurement"`
	Nonce       []byte   `json:"nonce"`
	DevicePub   []byte   `json:"device_pub"`
	Cert        []byte   `json:"cert"`
	Sig         []byte   `json:"sig"`
}

// challenge is the verifier's message.
type challenge struct {
	Nonce []byte `json:"nonce"`
}

func evidenceMessage(meas [32]byte, nonce []byte) []byte {
	h := sha256.New()
	h.Write([]byte("vedliot-attest-v1"))
	h.Write(meas[:])
	h.Write(nonce)
	return h.Sum(nil)
}

// Respond produces evidence for a challenge nonce.
func (d *Device) Respond(nonce []byte) Evidence {
	return Evidence{
		Device:      d.Name,
		Measurement: d.measurement,
		Nonce:       append([]byte(nil), nonce...),
		DevicePub:   append([]byte(nil), d.pub...),
		Cert:        append([]byte(nil), d.cert...),
		Sig:         ed25519.Sign(d.priv, evidenceMessage(d.measurement, nonce)),
	}
}

// Verifier checks evidence against the root key and a policy of known
// good measurements.
type Verifier struct {
	rootPub ed25519.PublicKey
	allowed map[[32]byte]bool
}

// NewVerifier creates a verifier trusting the given root and accepting
// the listed measurements.
func NewVerifier(rootPub ed25519.PublicKey, goodMeasurements ...[32]byte) *Verifier {
	v := &Verifier{rootPub: rootPub, allowed: make(map[[32]byte]bool)}
	for _, m := range goodMeasurements {
		v.allowed[m] = true
	}
	return v
}

// Verify validates evidence against a nonce: certificate chain, device
// signature, nonce freshness and measurement policy.
func (v *Verifier) Verify(ev Evidence, nonce []byte) error {
	if len(ev.DevicePub) != ed25519.PublicKeySize {
		return fmt.Errorf("attest: bad device key length %d", len(ev.DevicePub))
	}
	if !ed25519.Verify(v.rootPub, ev.DevicePub, ev.Cert) {
		return fmt.Errorf("attest: device certificate not endorsed by root")
	}
	if string(ev.Nonce) != string(nonce) {
		return fmt.Errorf("attest: stale or replayed nonce")
	}
	if !ed25519.Verify(ed25519.PublicKey(ev.DevicePub), evidenceMessage(ev.Measurement, nonce), ev.Sig) {
		return fmt.Errorf("attest: bad evidence signature")
	}
	if !v.allowed[ev.Measurement] {
		return fmt.Errorf("attest: measurement not in policy")
	}
	return nil
}

// Serve runs the prover side on a listener until it closes. Each
// connection receives one challenge and returns one evidence message.
func Serve(l net.Listener, d *Device) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(HandshakeTimeout))
			var ch challenge
			line, err := readLine(c)
			if err != nil {
				return
			}
			if json.Unmarshal(line, &ch) != nil {
				return
			}
			ev := d.Respond(ch.Nonce)
			out, err := json.Marshal(ev)
			if err != nil {
				return
			}
			out = append(out, '\n')
			_, _ = c.Write(out)
		}(conn)
	}
}

// Attest runs the verifier side against addr: it sends a fresh nonce,
// reads the evidence, verifies it, and returns the round-trip latency.
// The timeout caps the whole exchange (dial included) as a connection
// deadline, so a device that accepts but never responds fails the
// attestation instead of hanging a deployment; cancelling the context
// aborts the exchange immediately by forcing the deadline into the past.
func (v *Verifier) Attest(ctx context.Context, addr string, timeout time.Duration) (Evidence, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return Evidence{}, 0, err
	}
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return Evidence{}, 0, err
	}
	start := time.Now()
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return Evidence{}, 0, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	stop := context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()

	out, err := json.Marshal(challenge{Nonce: nonce})
	if err != nil {
		return Evidence{}, 0, err
	}
	out = append(out, '\n')
	if _, err := conn.Write(out); err != nil {
		return Evidence{}, 0, ctxOr(ctx, err)
	}
	line, err := readLine(conn)
	if err != nil {
		return Evidence{}, 0, ctxOr(ctx, err)
	}
	var ev Evidence
	if err := json.Unmarshal(line, &ev); err != nil {
		return Evidence{}, 0, err
	}
	rtt := time.Since(start)
	if err := v.Verify(ev, nonce); err != nil {
		return ev, rtt, err
	}
	return ev, rtt, nil
}

// ctxOr prefers the context's error over a transport error it caused:
// a cancelled exchange reports context.Canceled, not the synthetic
// deadline the cancellation forced onto the connection.
func ctxOr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}
