package release

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Witness is an independent log observer: it remembers the last tree
// head it saw per log origin and countersigns a new checkpoint only
// after verifying the log signature and an append-only consistency
// proof from the remembered head. A log that forks — presents two
// different trees of the same size, or rewrites history — cannot get a
// countersignature from any witness that saw the other view, which is
// the whole point: deploy policies requiring witnessed checkpoints make
// split-view attacks detectable.
type Witness struct {
	name   string
	priv   ed25519.PrivateKey
	logPub ed25519.PublicKey

	mu   sync.Mutex
	seen map[string]TreeHead
}

// TreeHead is the (size, root) pair a witness remembers per log.
type TreeHead struct {
	// Size is the entry count of the remembered tree head.
	Size uint64 `json:"size"`
	// Root is its Merkle root.
	Root Hash `json:"root"`
}

// NewWitness creates a witness with its own countersigning key,
// trusting checkpoints signed by logPub.
func NewWitness(name string, priv ed25519.PrivateKey, logPub ed25519.PublicKey) (*Witness, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("release: bad witness private key length %d", len(priv))
	}
	if len(logPub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("release: bad log public key length %d", len(logPub))
	}
	return &Witness{name: name, priv: priv, logPub: logPub, seen: make(map[string]TreeHead)}, nil
}

// GenerateWitness creates a witness with a fresh key pair.
func GenerateWitness(name string, logPub ed25519.PublicKey) (*Witness, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("release: generate witness key: %w", err)
	}
	return NewWitness(name, priv, logPub)
}

// Name returns the witness identity.
func (w *Witness) Name() string { return w.name }

// Public returns the witness countersignature verification key.
func (w *Witness) Public() ed25519.PublicKey {
	return w.priv.Public().(ed25519.PublicKey)
}

// Seen returns the last tree head the witness recorded for a log
// origin.
func (w *Witness) Seen(origin string) (TreeHead, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	th, ok := w.seen[origin]
	return th, ok
}

// Observe verifies a checkpoint and countersigns it. The consistency
// proof must show the checkpoint's tree extends the witness's last
// recorded head for that origin append-only; the first observation of
// an origin is trust-on-first-use. On success the new head is recorded
// and the countersignature returned; on any failure nothing is
// recorded and no signature is produced — a witness never endorses a
// shrinking or forked log.
func (w *Witness) Observe(cp Checkpoint, consistency []Hash) (WitnessSig, error) {
	if err := cp.VerifyLogSig(w.logPub); err != nil {
		return WitnessSig{}, fmt.Errorf("release: witness %s: %w", w.name, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.seen[cp.Origin]; ok {
		if cp.Size < prev.Size {
			return WitnessSig{}, fmt.Errorf("release: witness %s: log %q shrank from %d to %d entries",
				w.name, cp.Origin, prev.Size, cp.Size)
		}
		if err := VerifyConsistency(prev.Size, prev.Root, cp.Size, cp.Root, consistency); err != nil {
			return WitnessSig{}, fmt.Errorf("release: witness %s: log %q not append-only: %w", w.name, cp.Origin, err)
		}
	}
	w.seen[cp.Origin] = TreeHead{Size: cp.Size, Root: cp.Root}
	return WitnessSig{
		Name:  w.name,
		KeyID: KeyID(w.Public()),
		Sig:   ed25519.Sign(w.priv, cosignMessage(cp.Body())),
	}, nil
}

// witnessState is the on-disk JSON form of a witness's memory: the
// last tree head per origin.
type witnessState struct {
	Seen map[string]TreeHead `json:"seen"`
}

// LoadWitnessState restores a witness's remembered tree heads from a
// state file; a missing file leaves the witness fresh (TOFU).
func LoadWitnessState(path string, w *Witness) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("release: open witness state %s: %w", path, err)
	}
	seen, err := decodeWitnessState(data)
	if err != nil {
		return fmt.Errorf("release: parse witness state %s: %w", path, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for origin, th := range seen {
		w.seen[origin] = th
	}
	return nil
}

// decodeWitnessState parses a state file's bytes into tree heads per
// origin.
func decodeWitnessState(data []byte) (map[string]TreeHead, error) {
	var st witnessState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return st.Seen, nil
}

// encodeWitnessState renders tree heads per origin as a state file.
func encodeWitnessState(seen map[string]TreeHead) ([]byte, error) {
	data, err := json.MarshalIndent(witnessState{Seen: seen}, "", "  ")
	return append(data, '\n'), err
}

// SaveWitnessState writes the witness's remembered tree heads to a
// state file.
func SaveWitnessState(path string, w *Witness) error {
	w.mu.Lock()
	data, err := encodeWitnessState(w.seen)
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("release: encode witness state: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("release: save witness state %s: %w", path, err)
	}
	return nil
}
