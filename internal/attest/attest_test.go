package attest

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

func bootChain(appVersion string) []BootStage {
	return []BootStage{
		{Name: "bootloader", Image: []byte("bl-1.0")},
		{Name: "os", Image: []byte("optee-3.19")},
		{Name: "app", Image: []byte(appVersion)},
	}
}

func TestMeasureChainSensitivity(t *testing.T) {
	a := measureChain(bootChain("monitor-1.0"))
	b := measureChain(bootChain("monitor-1.0"))
	c := measureChain(bootChain("monitor-1.1"))
	if a != b {
		t.Error("same chain, different measurement")
	}
	if a == c {
		t.Error("modified app stage not reflected")
	}
	// Order matters.
	rev := []BootStage{bootChain("monitor-1.0")[2], bootChain("monitor-1.0")[1], bootChain("monitor-1.0")[0]}
	if measureChain(rev) == a {
		t.Error("stage order not captured")
	}
}

func TestLocalVerify(t *testing.T) {
	root, err := NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice("edge-0", root, bootChain("monitor-1.0"))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(root.Public(), dev.Measurement())
	nonce := []byte("nonce-1")
	ev := dev.Respond(nonce)
	if err := v.Verify(ev, nonce); err != nil {
		t.Fatal(err)
	}
	// Replayed nonce rejected.
	if err := v.Verify(ev, []byte("nonce-2")); err == nil {
		t.Error("replay accepted")
	}
}

func TestTamperedDeviceRejected(t *testing.T) {
	root, _ := NewRootOfTrust()
	dev, err := NewDevice("edge-0", root, bootChain("monitor-1.0"))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(root.Public(), measureChain(bootChain("monitor-1.0")))
	dev.Tamper()
	nonce := []byte("n")
	if err := v.Verify(dev.Respond(nonce), nonce); err == nil {
		t.Error("tampered device attested successfully")
	}
}

func TestUnendorsedDeviceRejected(t *testing.T) {
	root, _ := NewRootOfTrust()
	rogueRoot, _ := NewRootOfTrust()
	dev, err := NewDevice("rogue", rogueRoot, bootChain("monitor-1.0"))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(root.Public(), dev.Measurement())
	nonce := []byte("n")
	if err := v.Verify(dev.Respond(nonce), nonce); err == nil {
		t.Error("device endorsed by a different root accepted")
	}
}

func TestEvidenceSignatureBindsMeasurement(t *testing.T) {
	root, _ := NewRootOfTrust()
	dev, _ := NewDevice("edge", root, bootChain("monitor-1.0"))
	good := measureChain(bootChain("monitor-1.0"))
	v := NewVerifier(root.Public(), good)
	nonce := []byte("n")
	ev := dev.Respond(nonce)
	// An attacker rewriting the measurement field breaks the signature.
	ev.Measurement[0] ^= 1
	ev.Measurement[0] ^= 1 // restore: baseline must pass
	if err := v.Verify(ev, nonce); err != nil {
		t.Fatal(err)
	}
	forged := dev.Respond(nonce)
	forged.Measurement = good
	forged.Measurement[5] ^= 0xaa
	if err := v.Verify(forged, nonce); err == nil {
		t.Error("rewritten measurement accepted")
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	root, err := NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice("edge-tcp", root, bootChain("monitor-2.0"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go Serve(l, dev)

	v := NewVerifier(root.Public(), dev.Measurement())
	ev, rtt, err := v.Attest(context.Background(), l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Device != "edge-tcp" {
		t.Errorf("device = %q", ev.Device)
	}
	if rtt <= 0 {
		t.Error("non-positive RTT")
	}

	// A verifier with a different policy must reject the same device.
	var other [32]byte
	strict := NewVerifier(root.Public(), other)
	if _, _, err := strict.Attest(context.Background(), l.Addr().String(), 5*time.Second); err == nil {
		t.Error("out-of-policy measurement attested")
	}
}

func TestAttestDeadDeviceTimesOut(t *testing.T) {
	root, err := NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	// A listener that accepts and then goes silent — the failure mode a
	// crashed prover or a firewalled half-open connection produces.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never respond
		}
	}()

	v := NewVerifier(root.Public())
	start := time.Now()
	if _, _, err := v.Attest(context.Background(), l.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("attesting a dead device succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("dead device held the verifier for %v", waited)
	}
}

func TestAttestCtxCancelAborts(t *testing.T) {
	root, err := NewRootOfTrust()
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // silent prover again
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	v := NewVerifier(root.Public())
	go func() {
		_, _, err := v.Attest(ctx, l.Addr().String(), time.Hour)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled attest returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not abort the attestation")
	}
	// An already-cancelled context short-circuits before dialing.
	if _, _, err := v.Attest(ctx, l.Addr().String(), time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled attest returned %v", err)
	}
}

// floodPeer writes up to 32 MiB without a newline from one reused
// chunk, stopping at the first write error (the other side hung up).
func floodPeer(c net.Conn) {
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = 'a'
	}
	for sent := 0; sent < 32<<20; sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			return
		}
	}
}

// allocatedDuring reports the bytes the process allocated while f ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestServeRefusesUnboundedChallenge(t *testing.T) {
	root, _ := NewRootOfTrust()
	dev, err := NewDevice("edge", root, bootChain("monitor-1.0"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go Serve(l, dev)

	var reply []byte
	var readErr error
	grew := allocatedDuring(func() {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		floodPeer(c)
		_ = c.(*net.TCPConn).CloseWrite()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, readErr = io.ReadAll(c)
	})
	if len(reply) != 0 {
		t.Fatalf("device answered a newline-free flood with %d bytes (read error %v)", len(reply), readErr)
	}
	if grew >= 1<<20 {
		t.Fatalf("a newline-free challenge grew the heap by %d bytes", grew)
	}
}

func TestAttestRefusesUnboundedEvidence(t *testing.T) {
	root, _ := NewRootOfTrust()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	// A device that reads the challenge, then streams evidence that
	// never ends its line.
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, err := readLine(c); err != nil {
					return
				}
				floodPeer(c)
			}()
		}
	}()

	v := NewVerifier(root.Public())
	var attestErr error
	grew := allocatedDuring(func() {
		_, _, attestErr = v.Attest(context.Background(), l.Addr().String(), 5*time.Second)
	})
	if attestErr == nil {
		t.Fatal("a newline-free evidence stream attested")
	}
	if grew >= 1<<20 {
		t.Fatalf("a newline-free evidence stream grew the heap by %d bytes (error %v)", grew, attestErr)
	}
}
