// Package tee models an SGX-style enclave: a measured identity, ecall
// transition accounting and signed attestation quotes. It is the
// substrate for the paper's §IV-C results (the Twine overhead study of
// enclave + WASM runtime, the ecall batching ablation) and for the
// fleet's replica attestation (internal/cluster), and carries only what
// those three run.
//
// Because no SGX hardware is available, costs are *accounted*, not
// incurred: every enclave entry adds to a simulated-overhead counter
// calibrated from published SGX transition measurements. Benchmarks
// report measured wall time plus accounted overhead, which preserves the
// relative ordering the paper reports.
package tee

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Transition costs calibrated from published SGX1 microbenchmarks (~8k
// cycles per ecall round trip at ~2.6 GHz) plus the memory-encryption
// cost per KiB crossing the boundary.
const (
	ecallNS      = 3200
	cryptNSPerKB = 250
)

// Enclave is one protected execution context.
type Enclave struct {
	measurement [32]byte

	overheadNS atomic.Int64
	ecalls     atomic.Int64
}

// NewEnclave creates an enclave whose measurement is the SHA-256 of the
// initial code/data image, the MRENCLAVE analogue.
func NewEnclave(image []byte) *Enclave {
	return &Enclave{measurement: sha256.Sum256(image)}
}

// Measurement returns the enclave identity hash.
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// OverheadNS returns total accounted transition/crypto overhead.
func (e *Enclave) OverheadNS() int64 { return e.overheadNS.Load() }

// Ecalls returns the number of enclave entries.
func (e *Enclave) Ecalls() int64 { return e.ecalls.Load() }

// Ecall runs fn inside the enclave, accounting the transition and the
// boundary traffic of argBytes. The returned error is fn's.
func (e *Enclave) Ecall(argBytes int64, fn func() error) error {
	e.ecalls.Add(1)
	e.overheadNS.Add(ecallNS + cryptNSPerKB*((argBytes+1023)/1024))
	return fn()
}

// Quote is a signed attestation statement binding the enclave identity
// to a verifier nonce.
type Quote struct {
	Measurement [32]byte
	Nonce       []byte
	ReportData  []byte
	Sig         []byte
}

// GenerateQuote signs (measurement || nonce || reportData) with the
// platform attestation key.
func (e *Enclave) GenerateQuote(nonce, reportData []byte, platformKey ed25519.PrivateKey) Quote {
	msg := quoteMessage(e.measurement, nonce, reportData)
	return Quote{
		Measurement: e.measurement,
		Nonce:       append([]byte(nil), nonce...),
		ReportData:  append([]byte(nil), reportData...),
		Sig:         ed25519.Sign(platformKey, msg),
	}
}

// VerifyQuote checks a quote against the platform public key, the
// expected measurement and the challenge nonce.
func VerifyQuote(q Quote, platformPub ed25519.PublicKey, expected [32]byte, nonce []byte) error {
	if q.Measurement != expected {
		return fmt.Errorf("tee: measurement mismatch")
	}
	if string(q.Nonce) != string(nonce) {
		return fmt.Errorf("tee: nonce mismatch")
	}
	msg := quoteMessage(q.Measurement, q.Nonce, q.ReportData)
	if !ed25519.Verify(platformPub, msg, q.Sig) {
		return fmt.Errorf("tee: bad quote signature")
	}
	return nil
}

func quoteMessage(meas [32]byte, nonce, reportData []byte) []byte {
	var b []byte
	b = append(b, meas[:]...)
	var ln [4]byte
	binary.LittleEndian.PutUint32(ln[:], uint32(len(nonce)))
	b = append(b, ln[:]...)
	b = append(b, nonce...)
	b = append(b, reportData...)
	return b
}
