// Package release turns .vedz deployment artifacts into a verifiable
// release channel: the supply-chain half of the paper's trust story
// (§IV-C), modeled on firmware-transparency designs.
//
// Three artifacts make one release verifiable:
//
//   - An Envelope: a detached ed25519 signature over the artifact's
//     canonical content digest plus provenance metadata, produced at
//     export by a signer key.
//   - A transparency Log entry: the encoded envelope appended to an
//     append-only Merkle tree, with an inclusion proof tying the entry
//     to a signed tree-head Checkpoint.
//   - Witness countersignatures: independent witnesses verify that
//     each new checkpoint extends the previous one append-only (a
//     consistency proof) and countersign it; a split-view log cannot
//     obtain countersignatures from witnesses that saw the other view.
//
// A Bundle carries all three next to the artifact, and a Policy — the
// deploy-time trust configuration of required signer keys, the log key,
// witness keys and a minimum countersignature count — verifies it.
// cluster.Registry enforces a Policy before any artifact reaches a
// replica, and internal/tee closes the runtime side by attesting which
// plan digest each replica actually runs.
package release

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// EnvelopeVersion is the envelope wire-format version this package
// reads and writes.
const EnvelopeVersion = 1

// envelopeDomain separates envelope signatures from every other
// ed25519 use in the system.
const envelopeDomain = "vedliot-release-envelope/v1"

// Envelope is one signed release statement: a detached signature
// binding an artifact content digest (and its provenance summary) to a
// signer key. Its canonical encoding is the transparency-log leaf.
type Envelope struct {
	// Version is the envelope format version (EnvelopeVersion).
	Version int `json:"version"`
	// ArtifactDigest is the artifact's content digest ("sha256:<hex>"),
	// the identity everything else keys on.
	ArtifactDigest string `json:"artifact_digest"`
	// ArtifactBytes is the encoded artifact size, a cheap sanity bind.
	ArtifactBytes uint64 `json:"artifact_bytes"`
	// Model names the released model (Graph.Name).
	Model string `json:"model"`
	// Tool names the producer that signed the release.
	Tool string `json:"tool,omitempty"`
	// SignerID identifies the signing key (KeyID of its public key).
	SignerID string `json:"signer_id"`
	// Sig is the ed25519 signature over the envelope message.
	Sig []byte `json:"sig"`
}

// Encode returns the canonical (deterministic) encoding of the
// envelope — the exact bytes appended to the transparency log.
func (e Envelope) Encode() []byte {
	data, err := json.Marshal(e)
	if err != nil {
		// Envelope has no unmarshalable fields; keep the call sites clean.
		panic(fmt.Sprintf("release: encode envelope: %v", err))
	}
	return data
}

// decodeEnvelope parses a canonically encoded envelope, rejecting
// non-canonical bytes: a log entry must re-encode to itself so leaf
// hashes are reproducible from the parsed form.
func decodeEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("release: decode envelope: %w", err)
	}
	if e.Version != EnvelopeVersion {
		return Envelope{}, fmt.Errorf("release: unsupported envelope version %d (this build reads %d)", e.Version, EnvelopeVersion)
	}
	if string(e.Encode()) != string(data) {
		return Envelope{}, fmt.Errorf("release: envelope not in canonical form")
	}
	return e, nil
}

// message is the domain-separated byte string the signer key signs: a
// hash over every envelope field except the signature itself.
func (e Envelope) message() []byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n%s\n%d\n%s\n%s\n%s\n",
		envelopeDomain, e.Version, e.ArtifactDigest, e.ArtifactBytes, e.Model, e.Tool, e.SignerID)
	return h.Sum(nil)
}

// Verify checks the envelope signature against a candidate public key.
func (e Envelope) Verify(pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("release: bad public key length %d", len(pub))
	}
	if !ed25519.Verify(pub, e.message(), e.Sig) {
		return fmt.Errorf("release: bad envelope signature")
	}
	return nil
}

// KeyID derives the short identifier of an ed25519 public key used in
// envelopes and witness countersignatures: the first 8 bytes of its
// SHA-256, hex encoded.
func KeyID(pub ed25519.PublicKey) string {
	sum := sha256.Sum256(pub)
	return hex.EncodeToString(sum[:8])
}

// Signer holds a release signing key.
type Signer struct {
	priv ed25519.PrivateKey
}

// NewSigner generates a fresh release signing key.
func NewSigner() (*Signer, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("release: generate signer key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// NewSignerFromKey wraps an existing private key.
func NewSignerFromKey(priv ed25519.PrivateKey) (*Signer, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("release: bad private key length %d", len(priv))
	}
	return &Signer{priv: priv}, nil
}

// Public returns the signer's verification key.
func (s *Signer) Public() ed25519.PublicKey {
	return s.priv.Public().(ed25519.PublicKey)
}

// KeyID returns the identifier of the signer's public key.
func (s *Signer) KeyID() string { return KeyID(s.Public()) }

// Sign produces the release envelope for an artifact's content digest
// and provenance summary.
func (s *Signer) Sign(artifactDigest string, artifactBytes uint64, model, tool string) Envelope {
	e := Envelope{
		Version:        EnvelopeVersion,
		ArtifactDigest: artifactDigest,
		ArtifactBytes:  artifactBytes,
		Model:          model,
		Tool:           tool,
		SignerID:       s.KeyID(),
	}
	e.Sig = ed25519.Sign(s.priv, e.message())
	return e
}

// SignBytes signs the release of raw encoded artifact bytes, deriving
// the digest and size itself.
func (s *Signer) SignBytes(data []byte, model, tool string) Envelope {
	sum := sha256.Sum256(data)
	return s.Sign(fmt.Sprintf("sha256:%x", sum), uint64(len(data)), model, tool)
}
