package release

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// newTestLog returns a signing log and its public key.
func newTestLog(t *testing.T, origin string) *Log {
	t.Helper()
	_, priv, err := GenerateLogKey()
	if err != nil {
		t.Fatal(err)
	}
	return NewLog(origin, priv)
}

func TestEmptyLogCheckpoint(t *testing.T) {
	// A witness can be bootstrapped before the first release: the empty
	// log signs a size-0 checkpoint over the RFC 6962 empty root.
	l := newTestLog(t, "test/empty")
	cp, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Size != 0 {
		t.Fatalf("empty checkpoint size %d", cp.Size)
	}
	if cp.Root != emptyRoot() {
		t.Fatal("empty checkpoint root is not the empty-tree hash")
	}
	if err := cp.VerifyLogSig(l.Public()); err != nil {
		t.Fatal(err)
	}
	// And any later tree is consistent with it (empty proof).
	l.Append([]byte("first"))
	cp2, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(0, cp.Root, cp2.Size, cp2.Root, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSignatureBindsTreeHead(t *testing.T) {
	l := newTestLog(t, "test/bind")
	l.Append([]byte("a"))
	cp, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forged := cp
	forged.Size = 99
	if err := forged.VerifyLogSig(l.Public()); err == nil {
		t.Error("size-rewritten checkpoint verified")
	}
	forged = cp
	forged.Root[0] ^= 1
	if err := forged.VerifyLogSig(l.Public()); err == nil {
		t.Error("root-rewritten checkpoint verified")
	}
	forged = cp
	forged.Origin = "test/other"
	if err := forged.VerifyLogSig(l.Public()); err == nil {
		t.Error("origin-rewritten checkpoint verified")
	}
}

func TestLogProofsAtHistoricalSizes(t *testing.T) {
	l := newTestLog(t, "test/hist")
	for i := 0; i < 9; i++ {
		l.Append([]byte{byte(i)})
	}
	// Inclusion of entry 2 in the historical size-5 tree.
	proof, err := l.Inclusion(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	root5, err := l.Root(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(LeafHash([]byte{2}), 2, 5, proof, root5); err != nil {
		t.Fatal(err)
	}
	// Consistency between two historical sizes.
	cons, err := l.Consistency(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	root9, err := l.Root(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(5, root5, 9, root9, cons); err != nil {
		t.Fatal(err)
	}
	// Out-of-range requests fail loudly.
	if _, err := l.Inclusion(9, 9); err == nil {
		t.Error("inclusion past the end accepted")
	}
	if _, err := l.Root(10); err == nil {
		t.Error("root past the end accepted")
	}
	if _, err := l.Consistency(3, 10); err == nil {
		t.Error("consistency past the end accepted")
	}
}

func TestLogFileRoundTripAndTamperDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.json")
	_, priv, err := GenerateLogKey()
	if err != nil {
		t.Fatal(err)
	}

	l, err := OpenLogFile(path, "test/file", priv)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("fresh file-backed log has %d entries", l.Size())
	}
	l.Append([]byte(`{"entry":1}`))
	l.Append([]byte(`{"entry":2}`))
	wantRoot, err := l.Root(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveLogFile(path, l); err != nil {
		t.Fatal(err)
	}

	// Reload (read-only: no signing key) and compare roots — the
	// deterministic-encoding round trip for the log itself.
	back, err := OpenLogFile(path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Origin() != "test/file" {
		t.Fatalf("origin %q after reload", back.Origin())
	}
	gotRoot, err := back.Root(2)
	if err != nil {
		t.Fatal(err)
	}
	if gotRoot != wantRoot {
		t.Fatal("reloaded log reconstructs a different root")
	}
	if back.Public() != nil {
		t.Error("read-only log reports a public key")
	}
	if _, err := back.Checkpoint(); err == nil {
		t.Error("read-only log signed a checkpoint")
	}
	entry, err := back.Entry(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry, []byte(`{"entry":1}`)) {
		t.Fatal("entry drifted through the file round trip")
	}

	// Tampered leaf detection: rewriting an entry on disk changes the
	// reconstructed root, so every issued proof stops verifying.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lf logFile
	if err := json.Unmarshal(data, &lf); err != nil {
		t.Fatal(err)
	}
	lf.Entries[0][0] ^= 1
	tampered, err := json.Marshal(lf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	forked, err := OpenLogFile(path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	forkRoot, err := forked.Root(2)
	if err != nil {
		t.Fatal(err)
	}
	if forkRoot == wantRoot {
		t.Fatal("tampered entry not reflected in the root")
	}
}

func TestEnvelopeDeterministicRoundTrip(t *testing.T) {
	// The log-entry encoding must round-trip deterministically:
	// decode(encode(e)) re-encodes to the identical bytes, so leaf
	// hashes are reproducible from parsed entries.
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	e := s.Sign("sha256:00ff", 42, "mirror-face", "test")
	enc := e.Encode()
	back, err := decodeEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Encode(), enc) {
		t.Fatal("envelope encoding not deterministic across a round trip")
	}
	if LeafHash(back.Encode()) != LeafHash(enc) {
		t.Fatal("leaf hash not reproducible from the parsed entry")
	}
	// Non-canonical bytes (extra whitespace) are rejected outright.
	if _, err := decodeEnvelope(append([]byte(" "), enc...)); err == nil {
		t.Error("non-canonical envelope accepted")
	}
	// Unknown version rejected.
	bad := s.Sign("sha256:00", 1, "m", "t")
	bad.Version = 99
	if _, err := decodeEnvelope(bad.Encode()); err == nil {
		t.Error("future envelope version accepted")
	}
}
