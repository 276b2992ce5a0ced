package release

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"os"
)

// Bundle is everything a verifier needs next to an artifact to check
// its release: the signed envelope, the entry's position in the
// transparency log, the inclusion proof to the checkpoint root and the
// (witness-countersigned) checkpoint itself. A nil Checkpoint means
// the release was never logged — a Policy with a log key refuses it.
type Bundle struct {
	// Envelope is the signed release statement (the log leaf).
	Envelope Envelope `json:"envelope"`
	// LeafIndex is the envelope's position in the log.
	LeafIndex uint64 `json:"leaf_index"`
	// InclusionProof ties the leaf to Checkpoint.Root.
	InclusionProof []Hash `json:"inclusion_proof,omitempty"`
	// Checkpoint is the signed (and countersigned) tree head the proof
	// verifies against; nil for an unlogged release.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// EncodeBundle serializes a bundle to indented JSON (the .bundle.json
// file vedliot-pack writes next to an artifact).
func EncodeBundle(b *Bundle) ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("release: encode bundle: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeBundle parses a bundle file.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("release: decode bundle: %w", err)
	}
	return &b, nil
}

// LoadBundle reads and parses a bundle file.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("release: load bundle %s: %w", path, err)
	}
	return DecodeBundle(data)
}

// SaveBundle writes a bundle file.
func SaveBundle(path string, b *Bundle) error {
	data, err := EncodeBundle(b)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("release: save bundle %s: %w", path, err)
	}
	return nil
}

// Policy is the deploy-time trust configuration: which signer keys may
// release, which log must have logged the release, which witnesses
// count, and how many of them must have countersigned the checkpoint.
// The zero Policy is empty and verifies nothing; a non-empty Policy
// makes every requirement it states mandatory.
type Policy struct {
	// Signers are the release signing keys; a valid envelope signature
	// from any one of them satisfies the policy.
	Signers []ed25519.PublicKey
	// LogPub is the transparency log's checkpoint key; when set, the
	// bundle must carry a valid inclusion proof to a checkpoint signed
	// by it.
	LogPub ed25519.PublicKey
	// Witnesses are the countersignature keys the policy trusts.
	Witnesses []ed25519.PublicKey
	// MinWitnesses is how many distinct trusted witnesses must have
	// countersigned the checkpoint.
	MinWitnesses int
}

// Empty reports whether the policy states no requirements at all; an
// empty policy is the "no release gating" configuration.
func (p *Policy) Empty() bool {
	return p == nil || (len(p.Signers) == 0 && len(p.LogPub) == 0 && len(p.Witnesses) == 0 && p.MinWitnesses == 0)
}

// VerifyArtifact verifies a release bundle against the raw encoded
// artifact bytes: digest and size are derived from the data, then
// Verify runs.
func (p *Policy) VerifyArtifact(data []byte, b *Bundle) error {
	sum := sha256.Sum256(data)
	digest := fmt.Sprintf("sha256:%x", sum)
	if err := p.Verify(digest, b); err != nil {
		return err
	}
	if b.Envelope.ArtifactBytes != uint64(len(data)) {
		return fmt.Errorf("release: envelope declares %d artifact bytes, file has %d", b.Envelope.ArtifactBytes, len(data))
	}
	return nil
}

// Verify checks a release bundle for the artifact with the given
// content digest against every requirement the policy states:
//
//  1. the envelope names exactly this digest,
//  2. the envelope is signed by one of the policy's signer keys,
//  3. the checkpoint is signed by the policy's log key,
//  4. the checkpoint carries valid countersignatures from at least
//     MinWitnesses distinct trusted witnesses.
//
// Whenever the policy relies on the checkpoint (a log key or a witness
// quorum), the envelope's leaf must be proven included under the
// checkpoint's root: a signature on a tree head says nothing about an
// envelope that tree never held.
//
// An empty policy verifies nothing and accepts (even a nil bundle):
// gating is opt-in.
func (p *Policy) Verify(artifactDigest string, b *Bundle) error {
	if p.Empty() {
		return nil
	}
	if b == nil {
		return fmt.Errorf("release: policy requires a release bundle, artifact %s has none", artifactDigest)
	}
	if subtle.ConstantTimeCompare([]byte(b.Envelope.ArtifactDigest), []byte(artifactDigest)) != 1 {
		return fmt.Errorf("release: envelope is for %s, not %s", b.Envelope.ArtifactDigest, artifactDigest)
	}
	if len(p.Signers) > 0 {
		signed := false
		for _, pub := range p.Signers {
			if b.Envelope.Verify(pub) == nil {
				signed = true
				break
			}
		}
		if !signed {
			return fmt.Errorf("release: envelope for %s is not signed by any policy signer", artifactDigest)
		}
	}
	if len(p.LogPub) == 0 && p.MinWitnesses <= 0 {
		return nil
	}
	if b.Checkpoint == nil {
		return fmt.Errorf("release: %s is signed but not logged (no checkpoint in bundle)", artifactDigest)
	}
	if len(p.LogPub) > 0 {
		if err := b.Checkpoint.VerifyLogSig(p.LogPub); err != nil {
			return err
		}
	}
	leaf := LeafHash(b.Envelope.Encode())
	if err := VerifyInclusion(leaf, b.LeafIndex, b.Checkpoint.Size, b.InclusionProof, b.Checkpoint.Root); err != nil {
		return fmt.Errorf("release: %s not proven in log %q: %w", artifactDigest, b.Checkpoint.Origin, err)
	}
	if p.MinWitnesses > 0 {
		count := 0
		used := make(map[string]bool)
		for _, pub := range p.Witnesses {
			id := KeyID(pub)
			if used[id] {
				continue
			}
			for _, ws := range b.Checkpoint.Witness {
				if ws.KeyID == id && b.Checkpoint.VerifyWitnessSig(ws, pub) == nil {
					used[id] = true
					count++
					break
				}
			}
		}
		if count < p.MinWitnesses {
			return fmt.Errorf("release: checkpoint for %s has %d valid witness countersignature(s), policy requires %d",
				artifactDigest, count, p.MinWitnesses)
		}
	}
	return nil
}

// Publisher produces complete releases: it signs an artifact, appends
// the envelope to the transparency log, collects witness
// countersignatures on the new checkpoint and assembles the bundle a
// deploy policy verifies. The toolchain side of the release channel —
// kenning's ExportTarget and `vedliot-pack sign` both drive one.
type Publisher struct {
	// Signer signs release envelopes.
	Signer *Signer
	// Log is the transparency log releases are appended to.
	Log *Log
	// Witnesses countersign each new checkpoint. Publishing fails if
	// any of them refuses — a refusal means the log misbehaved.
	Witnesses []*Witness
	// Tool names the producer recorded in envelopes.
	Tool string
}

// Publish signs the encoded artifact bytes, logs the envelope and
// returns the verified release bundle.
func (p *Publisher) Publish(data []byte, model string) (*Bundle, error) {
	if p.Signer == nil || p.Log == nil {
		return nil, fmt.Errorf("release: publisher needs a signer and a log")
	}
	env := p.Signer.SignBytes(data, model, p.Tool)

	// Witnesses verify append-only-ness from their last seen head, so
	// capture those heads before the tree moves.
	prev := make([]uint64, len(p.Witnesses))
	for i, w := range p.Witnesses {
		if th, ok := w.Seen(p.Log.Origin()); ok {
			prev[i] = th.Size
		}
	}
	idx := p.Log.Append(env.Encode())
	cp, err := p.Log.Checkpoint()
	if err != nil {
		return nil, err
	}
	for i, w := range p.Witnesses {
		proof, err := p.Log.Consistency(prev[i], cp.Size)
		if err != nil {
			return nil, err
		}
		ws, err := w.Observe(cp, proof)
		if err != nil {
			return nil, fmt.Errorf("release: publish %s: %w", model, err)
		}
		cp.Witness = append(cp.Witness, ws)
	}
	incl, err := p.Log.Inclusion(idx, cp.Size)
	if err != nil {
		return nil, err
	}
	return &Bundle{Envelope: env, LeafIndex: idx, InclusionProof: incl, Checkpoint: &cp}, nil
}
