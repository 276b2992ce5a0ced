package release

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// merkle.go is the hash-tree substrate of the transparency log: an
// RFC 6962/9162-style Merkle tree over release entries, with inclusion
// proofs (one entry is in the tree a checkpoint commits to) and
// consistency proofs (a later tree extends an earlier one append-only,
// the property the witness enforces). Domain-separated hashing — 0x00
// before leaves, 0x01 before interior nodes — keeps a leaf from ever
// colliding with an interior node.

// Hash is one SHA-256 tree hash. It marshals to lowercase hex in JSON
// so proofs and checkpoints stay human-auditable in bundle files.
type Hash [32]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// MarshalJSON encodes the hash as a hex string.
func (h Hash) MarshalJSON() ([]byte, error) { return json.Marshal(h.String()) }

// UnmarshalJSON decodes the one form MarshalJSON writes: a JSON
// string of exactly 64 lower-case hex digits, without escapes. Upper
// case, escapes and any other length are refused, so every hash has one
// spelling and a decoded bundle or witness state re-encodes to itself.
func (h *Hash) UnmarshalJSON(data []byte) error {
	if len(data) != 2+hex.EncodedLen(len(h)) || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("release: hash is not a string of %d hex digits", hex.EncodedLen(len(h)))
	}
	digits := data[1 : len(data)-1]
	for _, c := range digits {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("release: hash digit %q is not lower-case hex", c)
		}
	}
	_, err := hex.Decode(h[:], digits)
	return err
}

// LeafHash computes the domain-separated hash of one log entry:
// SHA-256(0x00 || entry).
func LeafHash(entry []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(entry)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// nodeHash combines two subtree hashes: SHA-256(0x01 || left || right).
func nodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// emptyRoot is the root of the zero-entry tree: SHA-256 of the empty
// string, per RFC 6962.
func emptyRoot() Hash {
	var out Hash
	copy(out[:], sha256.New().Sum(nil))
	return out
}

// splitPoint returns the largest power of two strictly less than n;
// the left-subtree width of an n-leaf RFC 6962 tree (n >= 2).
func splitPoint(n uint64) uint64 {
	k := uint64(1)
	for k*2 < n {
		k *= 2
	}
	return k
}

// rootOf computes the Merkle tree head over the given leaf hashes.
func rootOf(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return emptyRoot()
	case 1:
		return leaves[0]
	default:
		k := splitPoint(uint64(len(leaves)))
		return nodeHash(rootOf(leaves[:k]), rootOf(leaves[k:]))
	}
}

// inclusionPath builds the audit path proving leaves[index] is in the
// tree over leaves (RFC 9162 §2.1.3.1): sibling subtree roots from the
// leaf up.
func inclusionPath(leaves []Hash, index uint64) []Hash {
	if len(leaves) <= 1 {
		return nil
	}
	k := splitPoint(uint64(len(leaves)))
	if index < k {
		return append(inclusionPath(leaves[:k], index), rootOf(leaves[k:]))
	}
	return append(inclusionPath(leaves[k:], index-k), rootOf(leaves[:k]))
}

// VerifyInclusion checks that the entry with the given leaf hash sits
// at index in the size-entry tree committed to by root (RFC 9162
// §2.1.3.2).
func VerifyInclusion(leaf Hash, index, size uint64, proof []Hash, root Hash) error {
	if index >= size {
		return fmt.Errorf("release: leaf index %d outside tree of size %d", index, size)
	}
	fn, sn := index, size-1
	r := leaf
	for _, p := range proof {
		if sn == 0 {
			return fmt.Errorf("release: inclusion proof too long for tree size %d", size)
		}
		if fn%2 == 1 || fn == sn {
			r = nodeHash(p, r)
			for fn%2 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("release: inclusion proof too short for tree size %d", size)
	}
	if r != root {
		return fmt.Errorf("release: inclusion proof does not reach the checkpoint root")
	}
	return nil
}

// consistencyPath builds the proof that the first oldSize leaves of
// leaves form a prefix of the tree over all of them (RFC 9162
// §2.1.4.1). oldSize must be in [1, len(leaves)].
func consistencyPath(leaves []Hash, oldSize uint64) []Hash {
	return subPath(leaves, oldSize, true)
}

// subPath is the SUBPROOF recursion: complete marks that the old tree
// is still a complete prefix of the subtree under consideration.
func subPath(leaves []Hash, m uint64, complete bool) []Hash {
	n := uint64(len(leaves))
	if m == n {
		if complete {
			return nil
		}
		return []Hash{rootOf(leaves)}
	}
	k := splitPoint(n)
	if m <= k {
		return append(subPath(leaves[:k], m, complete), rootOf(leaves[k:]))
	}
	return append(subPath(leaves[k:], m-k, false), rootOf(leaves[:k]))
}

// VerifyConsistency checks that the tree (newSize, newRoot) is an
// append-only extension of (oldSize, oldRoot) using the given proof
// (RFC 9162 §2.1.4.2). The empty old tree is consistent with anything;
// equal sizes must carry equal roots and an empty proof.
func VerifyConsistency(oldSize uint64, oldRoot Hash, newSize uint64, newRoot Hash, proof []Hash) error {
	if oldSize > newSize {
		return fmt.Errorf("release: tree shrank from %d to %d entries", oldSize, newSize)
	}
	if oldSize == newSize {
		if oldRoot != newRoot {
			return fmt.Errorf("release: same size %d but diverged roots (fork)", oldSize)
		}
		if len(proof) != 0 {
			return fmt.Errorf("release: unexpected consistency proof between identical trees")
		}
		return nil
	}
	if oldSize == 0 {
		if len(proof) != 0 {
			return fmt.Errorf("release: unexpected consistency proof from the empty tree")
		}
		return nil
	}
	path := proof
	if oldSize&(oldSize-1) == 0 {
		// The old tree is a complete subtree of the new one, so its root
		// is not repeated in the proof; seed the walk with it.
		path = append([]Hash{oldRoot}, proof...)
	}
	if len(path) == 0 {
		return fmt.Errorf("release: empty consistency proof for %d -> %d", oldSize, newSize)
	}
	fn, sn := oldSize-1, newSize-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, c := range path[1:] {
		if sn == 0 {
			return fmt.Errorf("release: consistency proof too long for %d -> %d", oldSize, newSize)
		}
		if fn%2 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			for fn%2 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("release: consistency proof too short for %d -> %d", oldSize, newSize)
	}
	if fr != oldRoot {
		return fmt.Errorf("release: consistency proof does not reconstruct the old root")
	}
	if sr != newRoot {
		return fmt.Errorf("release: consistency proof does not reconstruct the new root")
	}
	return nil
}
