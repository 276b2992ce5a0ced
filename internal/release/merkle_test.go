package release

import (
	"fmt"
	"strings"
	"testing"
)

// testLeaves builds n distinct leaf hashes.
func testLeaves(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = LeafHash([]byte(fmt.Sprintf("entry-%d", i)))
	}
	return leaves
}

func TestLeafAndNodeDomainSeparation(t *testing.T) {
	// A leaf hash of (l || r) must not equal the node hash of (l, r):
	// the 0x00/0x01 prefixes keep second-preimage tricks out.
	l, r := LeafHash([]byte("a")), LeafHash([]byte("b"))
	var concat []byte
	concat = append(concat, l[:]...)
	concat = append(concat, r[:]...)
	if LeafHash(concat) == nodeHash(l, r) {
		t.Fatal("leaf and node hashing not domain-separated")
	}
}

func TestInclusionAllIndicesAllSizes(t *testing.T) {
	// Every leaf of every tree size up to 20 (non-powers of two
	// included) must prove into the root, and into no other root.
	leaves := testLeaves(20)
	for size := 1; size <= len(leaves); size++ {
		root := rootOf(leaves[:size])
		for i := 0; i < size; i++ {
			proof := inclusionPath(leaves[:size], uint64(i))
			if err := VerifyInclusion(leaves[i], uint64(i), uint64(size), proof, root); err != nil {
				t.Fatalf("size %d index %d: %v", size, i, err)
			}
			// The same proof must not verify a different leaf.
			if err := VerifyInclusion(LeafHash([]byte("evil")), uint64(i), uint64(size), proof, root); err == nil {
				t.Fatalf("size %d index %d: foreign leaf verified", size, i)
			}
		}
	}
}

func TestSingleLeafInclusionProof(t *testing.T) {
	// A one-entry tree: the leaf is the root and the proof is empty.
	leaves := testLeaves(1)
	proof := inclusionPath(leaves, 0)
	if len(proof) != 0 {
		t.Fatalf("single-leaf proof has %d elements, want 0", len(proof))
	}
	if err := VerifyInclusion(leaves[0], 0, 1, proof, rootOf(leaves)); err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(leaves[0], 0, 1, proof, LeafHash([]byte("other"))); err == nil {
		t.Fatal("single-leaf proof verified against a wrong root")
	}
}

func TestInclusionRejectsOutOfRangeAndTruncatedProofs(t *testing.T) {
	leaves := testLeaves(7)
	root := rootOf(leaves)
	proof := inclusionPath(leaves, 3)
	if err := VerifyInclusion(leaves[3], 7, 7, proof, root); err == nil {
		t.Error("index == size accepted")
	}
	if err := VerifyInclusion(leaves[3], 3, 7, proof[:1], root); err == nil {
		t.Error("truncated proof accepted")
	}
	if err := VerifyInclusion(leaves[3], 3, 7, append(append([]Hash{}, proof...), Hash{}), root); err == nil {
		t.Error("padded proof accepted")
	}
}

func TestConsistencyAllSizePairs(t *testing.T) {
	// Consistency must hold for every (old, new) pair up to 20 leaves —
	// the non-power-of-two boundaries are where the subproof recursion
	// earns its keep.
	leaves := testLeaves(20)
	for oldSize := 0; oldSize <= len(leaves); oldSize++ {
		oldRoot := rootOf(leaves[:oldSize])
		for newSize := oldSize; newSize <= len(leaves); newSize++ {
			newRoot := rootOf(leaves[:newSize])
			var proof []Hash
			if oldSize > 0 && oldSize < newSize {
				proof = consistencyPath(leaves[:newSize], uint64(oldSize))
			}
			if err := VerifyConsistency(uint64(oldSize), oldRoot, uint64(newSize), newRoot, proof); err != nil {
				t.Fatalf("consistency %d -> %d: %v", oldSize, newSize, err)
			}
		}
	}
}

func TestConsistencyDetectsRewrittenHistory(t *testing.T) {
	// A "log" that rewrites an old entry while growing must fail the
	// append-only check from the honest old head.
	honest := testLeaves(5)
	oldRoot := rootOf(honest[:3])

	forked := testLeaves(5)
	forked[1] = LeafHash([]byte("rewritten"))
	forkRoot := rootOf(forked)
	forkProof := consistencyPath(forked, 3)
	if err := VerifyConsistency(3, oldRoot, 5, forkRoot, forkProof); err == nil {
		t.Fatal("rewritten history passed the consistency check")
	}

	// Equal-size fork: same size, different root, no proof can help.
	if err := VerifyConsistency(5, rootOf(honest), 5, forkRoot, nil); err == nil {
		t.Fatal("equal-size fork passed the consistency check")
	}
}

func TestConsistencyRejectsShrinkingTree(t *testing.T) {
	leaves := testLeaves(6)
	if err := VerifyConsistency(6, rootOf(leaves), 4, rootOf(leaves[:4]), nil); err == nil {
		t.Fatal("shrinking tree accepted")
	}
}

func TestHashJSONRoundTrip(t *testing.T) {
	h := LeafHash([]byte("x"))
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Hash
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("hash JSON round trip drifted")
	}
	for _, bad := range []string{`"zz"`, `"abcd"`, `null`, `"` + strings.Repeat("z", 64) + `"`} {
		if err := back.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("hash %s accepted", bad)
		}
	}
}

// TestHashRefusesSecondSpelling pins the decoder's answer to upper-case
// hex and escaped digits: refused, not canonicalized, so a hash read
// from a bundle or a witness state has the one spelling MarshalJSON
// writes.
func TestHashRefusesSecondSpelling(t *testing.T) {
	h := LeafHash([]byte("x"))
	lower := h.String()
	var back Hash
	if err := back.UnmarshalJSON([]byte(`"` + lower + `"`)); err != nil || back != h {
		t.Fatalf("canonical hash refused: %v", err)
	}
	for _, alt := range []string{
		`"` + strings.ToUpper(lower) + `"`,
		fmt.Sprintf(`"\u%04x%s"`, lower[0], lower[1:]),
		` "` + lower + `"`,
	} {
		if err := back.UnmarshalJSON([]byte(alt)); err == nil {
			t.Errorf("second spelling %s accepted", alt)
		}
	}
	state := []byte(`{"seen":{"o":{"size":1,"root":"` + strings.ToUpper(lower) + `"}}}`)
	if _, err := decodeWitnessState(state); err == nil {
		t.Error("witness state with an upper-case root accepted")
	}
}
