package cluster

import (
	"crypto/ed25519"
	"crypto/rand"
	"os"
	"testing"

	"vedliot/internal/artifact"
	"vedliot/internal/release"
)

// releaseChannel is a complete gated channel for tests: signer, log,
// one witness, the policy trusting exactly them, and a publisher.
type releaseChannel struct {
	signer  *release.Signer
	log     *release.Log
	witness *release.Witness
	policy  *release.Policy
	pub     *release.Publisher
}

func newReleaseChannel(t *testing.T) *releaseChannel {
	t.Helper()
	s, err := release.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	_, logKey, err := release.GenerateLogKey()
	if err != nil {
		t.Fatal(err)
	}
	l := release.NewLog("test/cluster", logKey)
	w, err := release.GenerateWitness("w0", l.Public())
	if err != nil {
		t.Fatal(err)
	}
	return &releaseChannel{
		signer:  s,
		log:     l,
		witness: w,
		policy: &release.Policy{
			Signers:      []ed25519.PublicKey{s.Public()},
			LogPub:       l.Public(),
			Witnesses:    []ed25519.PublicKey{w.Public()},
			MinWitnesses: 1,
		},
		pub: &release.Publisher{Signer: s, Log: l, Witnesses: []*release.Witness{w}, Tool: "test"},
	}
}

// exportAndPublish exports the gesture model, publishes its bytes
// through the channel, and returns the loaded model plus its bundle.
func exportAndPublish(t *testing.T, ch *releaseChannel) (*artifact.Model, *release.Bundle) {
	t.Helper()
	path, _, _ := exportGesture(t, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ch.pub.Publish(data, m.Graph.Name)
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

// TestGatedRegistryRefusesUnsigned pins the first acceptance-criteria
// refusal: with a non-empty policy, an artifact without any release
// bundle never enters the registry, and one smuggled in before the
// policy landed never reaches a replica.
func TestGatedRegistryRefusesUnsigned(t *testing.T) {
	ch := newReleaseChannel(t)
	path, g, _ := exportGesture(t, false)

	reg := NewRegistry()
	reg.SetPolicy(ch.policy)
	if _, err := reg.LoadFile(path); err == nil {
		t.Fatal("gated registry accepted an unsigned artifact via LoadFile")
	}
	m, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(m); err == nil {
		t.Fatal("gated registry accepted an unsigned artifact via Add")
	}
	if err := reg.AddRelease(m, nil); err == nil {
		t.Fatal("gated registry accepted a nil bundle")
	}

	// The deploy-time gate: register first, tighten the policy after —
	// DeployArtifact must still refuse.
	late := NewRegistry()
	if err := late.Add(m); err != nil {
		t.Fatal(err)
	}
	late.SetPolicy(ch.policy)
	sched := NewScheduler(urecsFleet(t), Config{Registry: late})
	defer sched.Close()
	if _, err := sched.DeployArtifact(g.Name); err == nil {
		t.Fatal("scheduler deployed an unsigned artifact past a late policy")
	}
}

// TestGatedRegistryRefusesSignedButUnlogged pins the second refusal: a
// valid signature without a transparency-log inclusion proof is not a
// release.
func TestGatedRegistryRefusesSignedButUnlogged(t *testing.T) {
	ch := newReleaseChannel(t)
	path, _, _ := exportGesture(t, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	env := ch.signer.SignBytes(data, m.Graph.Name, "test")
	unlogged := &release.Bundle{Envelope: env}

	reg := NewRegistry()
	reg.SetPolicy(ch.policy)
	if err := reg.AddRelease(m, unlogged); err == nil {
		t.Fatal("gated registry accepted a signed-but-unlogged bundle")
	}
}

// TestGatedRegistryRefusesUnwitnessed pins the third refusal: log
// inclusion without the witness quorum is a split-view risk, not a
// release.
func TestGatedRegistryRefusesUnwitnessed(t *testing.T) {
	ch := newReleaseChannel(t)
	m, b := exportAndPublish(t, ch)
	stripped := *b.Checkpoint
	stripped.Witness = nil
	unwitnessed := &release.Bundle{
		Envelope:       b.Envelope,
		LeafIndex:      b.LeafIndex,
		InclusionProof: b.InclusionProof,
		Checkpoint:     &stripped,
	}

	reg := NewRegistry()
	reg.SetPolicy(ch.policy)
	if err := reg.AddRelease(m, unwitnessed); err == nil {
		t.Fatal("gated registry accepted an unwitnessed checkpoint")
	}
	if err := reg.AddRelease(m, b); err != nil {
		t.Fatalf("fully witnessed bundle refused: %v", err)
	}
	// Deploy-time re-verification with a quorum the bundle cannot meet.
	strict := *ch.policy
	strict.MinWitnesses = 2
	reg.SetPolicy(&strict)
	sched := NewScheduler(urecsFleet(t), Config{Registry: reg})
	defer sched.Close()
	if _, err := sched.DeployArtifact(m.Graph.Name); err == nil {
		t.Fatal("scheduler deployed past an unmet witness quorum")
	}
}

// TestGatedDeployAndAttest is the end-to-end happy path: a published
// artifact passes the gate, deploys, serves, and every replica proves
// via attestation that it runs exactly the authorized digest.
func TestGatedDeployAndAttest(t *testing.T) {
	ch := newReleaseChannel(t)
	m, b := exportAndPublish(t, ch)

	reg := NewRegistry()
	reg.SetPolicy(ch.policy)
	if err := reg.AddRelease(m, b); err != nil {
		t.Fatal(err)
	}
	if got := reg.Bundle(m.Digest); got != b {
		t.Fatal("registered bundle not retrievable by digest")
	}
	sched := NewScheduler(urecsFleet(t), Config{Registry: reg})
	defer sched.Close()
	dep, err := sched.DeployArtifact(m.Graph.Name)
	if err != nil {
		t.Fatal(err)
	}
	if dep.ArtifactDigest() != m.Digest {
		t.Fatalf("deployment digest %s, want %s", dep.ArtifactDigest(), m.Digest)
	}
	if _, err := dep.InferSingle(gestureInput(1)); err != nil {
		t.Fatal(err)
	}

	platformPub, platformKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("challenge-nonce")
	atts, err := dep.Attest(nonce, platformKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(atts) != len(dep.Replicas()) {
		t.Fatalf("%d attestations for %d replicas", len(atts), len(dep.Replicas()))
	}
	for _, a := range atts {
		if err := VerifyReplicaAttestation(a, platformPub, m.Digest, nonce); err != nil {
			t.Fatal(err)
		}
		if a.EcallOverheadNS <= 0 {
			t.Fatal("attestation accounted no enclave transition overhead")
		}
	}

	// Negative attestation checks: wrong digest, replayed nonce, forged
	// platform key.
	a := atts[0]
	if err := VerifyReplicaAttestation(a, platformPub, "sha256:other", nonce); err == nil {
		t.Fatal("attestation verified against a different digest")
	}
	if err := VerifyReplicaAttestation(a, platformPub, m.Digest, []byte("stale")); err == nil {
		t.Fatal("attestation verified against a different nonce")
	}
	roguePub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReplicaAttestation(a, roguePub, m.Digest, nonce); err == nil {
		t.Fatal("attestation verified under a foreign platform key")
	}
	// Module swap: the measurement binds the hosting module too.
	swapped := a
	swapped.Module = "some-other-module"
	if err := VerifyReplicaAttestation(swapped, platformPub, m.Digest, nonce); err == nil {
		t.Fatal("attestation verified after a module swap")
	}
}

// TestInProcessDeployDoesNotAttest pins the boundary: only artifact
// deployments carry enclaves and attest.
func TestInProcessDeployDoesNotAttest(t *testing.T) {
	g := gestureModel()
	sched := NewScheduler(urecsFleet(t), Config{})
	defer sched.Close()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if dep.ArtifactDigest() != "" {
		t.Fatal("in-process deployment claims an artifact digest")
	}
	for _, r := range dep.Replicas() {
		if r.Enclave() != nil {
			t.Fatal("in-process replica carries an enclave")
		}
	}
	if _, err := dep.Attest([]byte("n"), nil); err == nil {
		t.Fatal("in-process deployment attested")
	}
}
