package release

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"
)

// testChannel is a complete release channel: signer, log, one witness,
// and the policy trusting exactly them.
type testChannel struct {
	signer  *Signer
	log     *Log
	witness *Witness
	policy  *Policy
	pub     *Publisher
}

func newTestChannel(t *testing.T) *testChannel {
	t.Helper()
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLog(t, "test/releases")
	w, err := GenerateWitness("w0", l.Public())
	if err != nil {
		t.Fatal(err)
	}
	return &testChannel{
		signer:  s,
		log:     l,
		witness: w,
		policy: &Policy{
			Signers:      []ed25519.PublicKey{s.Public()},
			LogPub:       l.Public(),
			Witnesses:    []ed25519.PublicKey{w.Public()},
			MinWitnesses: 1,
		},
		pub: &Publisher{Signer: s, Log: l, Witnesses: []*Witness{w}, Tool: "test"},
	}
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("sha256:%x", sum)
}

func TestPublishThenVerify(t *testing.T) {
	ch := newTestChannel(t)
	art := []byte("pretend artifact bytes")
	b, err := ch.pub.Publish(art, "mirror-face")
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.policy.VerifyArtifact(art, b); err != nil {
		t.Fatal(err)
	}
	if b.Envelope.Model != "mirror-face" || b.Envelope.Tool != "test" {
		t.Fatalf("envelope metadata %+v", b.Envelope)
	}
	// Later releases keep earlier bundles verifiable (proofs are bound
	// to their own checkpoint, not the moving head).
	if _, err := ch.pub.Publish([]byte("second artifact"), "motor"); err != nil {
		t.Fatal(err)
	}
	if err := ch.policy.VerifyArtifact(art, b); err != nil {
		t.Fatalf("earlier bundle stopped verifying: %v", err)
	}
}

func TestPolicyRefusesUnsigned(t *testing.T) {
	ch := newTestChannel(t)
	art := []byte("artifact")
	// No bundle at all.
	if err := ch.policy.Verify(digestOf(art), nil); err == nil {
		t.Fatal("nil bundle accepted")
	}
	// A bundle signed by a key outside the policy.
	rogue, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	roguePub := &Publisher{Signer: rogue, Log: ch.log, Witnesses: []*Witness{ch.witness}, Tool: "rogue"}
	b, err := roguePub.Publish(art, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.policy.VerifyArtifact(art, b); err == nil {
		t.Fatal("rogue-signed bundle accepted")
	}
	// A tampered envelope signature.
	good, err := ch.pub.Publish(art, "m2")
	if err != nil {
		t.Fatal(err)
	}
	good.Envelope.Sig[0] ^= 1
	if err := ch.policy.VerifyArtifact(art, good); err == nil {
		t.Fatal("bit-flipped signature accepted")
	}
}

func TestPolicyRefusesSignedButUnlogged(t *testing.T) {
	ch := newTestChannel(t)
	art := []byte("artifact")
	env := ch.signer.SignBytes(art, "m", "test")
	b := &Bundle{Envelope: env} // valid signature, no checkpoint
	err := ch.policy.VerifyArtifact(art, b)
	if err == nil {
		t.Fatal("signed-but-unlogged bundle accepted")
	}
	// And a bundle whose inclusion proof is for a different leaf.
	logged, err := ch.pub.Publish([]byte("other artifact"), "other")
	if err != nil {
		t.Fatal(err)
	}
	swapped := &Bundle{
		Envelope:       env,
		LeafIndex:      logged.LeafIndex,
		InclusionProof: logged.InclusionProof,
		Checkpoint:     logged.Checkpoint,
	}
	if err := ch.policy.VerifyArtifact(art, swapped); err == nil {
		t.Fatal("bundle with a foreign inclusion proof accepted")
	}
}

func TestPolicyRefusesUnwitnessedCheckpoint(t *testing.T) {
	ch := newTestChannel(t)
	art := []byte("artifact")
	b, err := ch.pub.Publish(art, "m")
	if err != nil {
		t.Fatal(err)
	}
	// Strip the countersignatures: log inclusion still verifies, the
	// witness quorum does not.
	stripped := *b.Checkpoint
	stripped.Witness = nil
	b2 := &Bundle{Envelope: b.Envelope, LeafIndex: b.LeafIndex, InclusionProof: b.InclusionProof, Checkpoint: &stripped}
	if err := ch.policy.VerifyArtifact(art, b2); err == nil {
		t.Fatal("unwitnessed checkpoint accepted")
	}
	// A countersignature from a witness outside the policy doesn't count.
	outsider, err := GenerateWitness("outsider", ch.log.Public())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := outsider.Observe(stripped, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripped.Witness = []WitnessSig{ws}
	if err := ch.policy.VerifyArtifact(art, b2); err == nil {
		t.Fatal("outsider countersignature satisfied the quorum")
	}
	// Asking for more witnesses than exist refuses too.
	strict := *ch.policy
	strict.MinWitnesses = 2
	if err := strict.VerifyArtifact(art, b); err == nil {
		t.Fatal("quorum of 2 satisfied by 1 witness")
	}
}

// TestWitnessOnlyPolicyProvesInclusion: a policy that trusts witnesses
// but names no log key still relies on the checkpoint, so the envelope
// must be proven under its root. A signed envelope carried next to a
// witnessed checkpoint of a log that never held it is refused; the
// same envelope, logged and witnessed there, is accepted.
func TestWitnessOnlyPolicyProvesInclusion(t *testing.T) {
	ch := newTestChannel(t)
	other := newTestLog(t, "unrelated/log")
	w, err := GenerateWitness("w1", other.Public())
	if err != nil {
		t.Fatal(err)
	}
	policy := &Policy{Signers: []ed25519.PublicKey{ch.signer.Public()}, Witnesses: []ed25519.PublicKey{w.Public()}, MinWitnesses: 1}
	unrelated := &Publisher{Signer: ch.signer, Log: other, Witnesses: []*Witness{w}, Tool: "test"}
	foreign, err := unrelated.Publish([]byte("some other artifact"), "other")
	if err != nil {
		t.Fatal(err)
	}
	art := []byte("artifact")
	crossLog := &Bundle{Envelope: ch.signer.SignBytes(art, "m", "test"), Checkpoint: foreign.Checkpoint}
	if err := policy.VerifyArtifact(art, crossLog); err == nil {
		t.Fatal("envelope accepted under a witnessed checkpoint of a log that never held it")
	}
	logged, err := unrelated.Publish(art, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.VerifyArtifact(art, logged); err != nil {
		t.Fatalf("logged and witnessed bundle refused: %v", err)
	}
}

func TestPolicyRefusesWrongArtifact(t *testing.T) {
	ch := newTestChannel(t)
	art := []byte("artifact v1")
	b, err := ch.pub.Publish(art, "m")
	if err != nil {
		t.Fatal(err)
	}
	// The classic supply-chain swap: valid bundle, different bytes.
	if err := ch.policy.VerifyArtifact([]byte("artifact v2"), b); err == nil {
		t.Fatal("bundle verified a different artifact")
	}
	// Size mismatch with a forged digest match is impossible, but the
	// declared-size check still guards truncation-style confusion.
	b.Envelope.ArtifactBytes++
	if err := ch.policy.VerifyArtifact(art, b); err == nil {
		t.Fatal("size-mismatched envelope accepted")
	}
}

func TestEmptyPolicyAcceptsEverything(t *testing.T) {
	var p *Policy
	if !p.Empty() {
		t.Fatal("nil policy not empty")
	}
	if err := p.Verify("sha256:anything", nil); err != nil {
		t.Fatal(err)
	}
	zero := &Policy{}
	if !zero.Empty() {
		t.Fatal("zero policy not empty")
	}
}

func TestPublisherFailsWhenWitnessRefuses(t *testing.T) {
	ch := newTestChannel(t)
	if _, err := ch.pub.Publish([]byte("a"), "m"); err != nil {
		t.Fatal(err)
	}
	// Poison the witness's memory to simulate it having seen a
	// different (forked) view of this log: publishing must now fail
	// instead of shipping an unwitnessed checkpoint.
	ch.witness.mu.Lock()
	ch.witness.seen[ch.log.Origin()] = TreeHead{Size: 1, Root: LeafHash([]byte("other view"))}
	ch.witness.mu.Unlock()
	if _, err := ch.pub.Publish([]byte("b"), "m2"); err == nil {
		t.Fatal("publish succeeded against a refusing witness")
	}
}

func TestKeyDirAndPolicyDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeyDir(dir); err != nil {
		t.Fatal(err)
	}
	// Private keys load and re-derive the saved public halves.
	for _, name := range []string{SignerKeyName, LogKeyName, WitnessKeyName} {
		priv, err := LoadPrivateKey(filepath.Join(dir, name+".key"))
		if err != nil {
			t.Fatal(err)
		}
		pub, err := LoadPublicKey(filepath.Join(dir, name+".pub"))
		if err != nil {
			t.Fatal(err)
		}
		if !pub.Equal(priv.Public()) {
			t.Fatalf("%s: saved public key does not match private key", name)
		}
	}
	p, err := LoadPolicyDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() || len(p.Signers) != 1 || p.MinWitnesses != 1 {
		t.Fatalf("policy %+v", p)
	}
	// The loaded policy verifies a channel built from the same keys.
	signer, err := NewSignerFromKey(mustLoadKey(t, dir, SignerKeyName))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog("test/dir", mustLoadKey(t, dir, LogKeyName))
	w, err := NewWitness("w0", mustLoadKey(t, dir, WitnessKeyName), l.Public())
	if err != nil {
		t.Fatal(err)
	}
	pubr := &Publisher{Signer: signer, Log: l, Witnesses: []*Witness{w}, Tool: "test"}
	art := []byte("artifact")
	b, err := pubr.Publish(art, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyArtifact(art, b); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicyDir(filepath.Join(dir, "absent"), 1); err == nil {
		t.Error("missing key dir accepted")
	}
}

func mustLoadKey(t *testing.T, dir, name string) ed25519.PrivateKey {
	t.Helper()
	priv, err := LoadPrivateKey(filepath.Join(dir, name+".key"))
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

func TestBundleFileRoundTrip(t *testing.T) {
	ch := newTestChannel(t)
	art := []byte("artifact")
	b, err := ch.pub.Publish(art, "m")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bundle.json")
	if err := SaveBundle(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.policy.VerifyArtifact(art, back); err != nil {
		t.Fatalf("bundle stopped verifying after a file round trip: %v", err)
	}
}
