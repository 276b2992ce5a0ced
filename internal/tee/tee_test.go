package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"testing"
)

func TestMeasurementDeterministic(t *testing.T) {
	a := NewEnclave([]byte("image-1"))
	b := NewEnclave([]byte("image-1"))
	c := NewEnclave([]byte("image-2"))
	if a.Measurement() != b.Measurement() {
		t.Error("same image, different measurement")
	}
	if a.Measurement() == c.Measurement() {
		t.Error("different images share a measurement")
	}
}

func TestEcallAccounting(t *testing.T) {
	e := NewEnclave([]byte("x"))
	ran := false
	if err := e.Ecall(1024, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("ecall body did not run")
	}
	if e.Ecalls() != 1 {
		t.Errorf("ecalls = %d", e.Ecalls())
	}
	want := int64(ecallNS + cryptNSPerKB)
	if e.OverheadNS() != want {
		t.Errorf("overhead = %d, want %d", e.OverheadNS(), want)
	}
	// The boundary traffic is charged per started KiB.
	_ = e.Ecall(1025, func() error { return nil })
	if want += ecallNS + 2*cryptNSPerKB; e.Ecalls() != 2 || e.OverheadNS() != want {
		t.Errorf("after a 1025-byte ecall: %d ecalls, overhead %d, want 2 and %d", e.Ecalls(), e.OverheadNS(), want)
	}
}

func TestQuoteVerify(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnclave([]byte("app"))
	nonce := []byte("fresh-nonce-123")
	q := e.GenerateQuote(nonce, []byte("report"), priv)
	if err := VerifyQuote(q, pub, e.Measurement(), nonce); err != nil {
		t.Fatal(err)
	}
	// Wrong nonce.
	if err := VerifyQuote(q, pub, e.Measurement(), []byte("other")); err == nil {
		t.Error("stale nonce accepted")
	}
	// Wrong measurement.
	var wrong [32]byte
	if err := VerifyQuote(q, pub, wrong, nonce); err == nil {
		t.Error("wrong measurement accepted")
	}
	// Forged signature.
	q2 := q
	q2.Sig = append([]byte(nil), q.Sig...)
	q2.Sig[0] ^= 1
	if err := VerifyQuote(q2, pub, e.Measurement(), nonce); err == nil {
		t.Error("forged signature accepted")
	}
	// Report data is covered by the signature.
	q3 := q
	q3.ReportData = []byte("r3port")
	if err := VerifyQuote(q3, pub, e.Measurement(), nonce); err == nil {
		t.Error("altered report data accepted")
	}
}
