package release

import (
	"bytes"
	"crypto/ed25519"
	"strings"
	"testing"
)

// fuzzKey is a fixed ed25519 key, so the fuzz seeds and the policies
// they are checked under are the same on every run.
func fuzzKey(b byte) ed25519.PrivateKey {
	return ed25519.NewKeyFromSeed(bytes.Repeat([]byte{b}, ed25519.SeedSize))
}

// FuzzReleaseBundle feeds arbitrary bytes to the release decoders:
// DecodeBundle, then Policy.Verify under a full policy and under a
// witness-only one (no log key), and DecodeEnvelope. Properties: no
// panic; a bundle either policy accepts has its envelope proven under
// its checkpoint root; a decoded bundle re-encodes to bytes that decode
// to the same bundle and the same verdicts; an accepted envelope is its
// own canonical encoding.
func FuzzReleaseBundle(f *testing.F) {
	signer, err := NewSignerFromKey(fuzzKey(1))
	if err != nil {
		f.Fatal(err)
	}
	logKey := fuzzKey(2)
	newWitness := func() *Witness {
		w, err := NewWitness("w0", fuzzKey(3), logKey.Public().(ed25519.PublicKey))
		if err != nil {
			f.Fatal(err)
		}
		return w
	}
	w := newWitness()
	full := &Policy{
		Signers:      []ed25519.PublicKey{signer.Public()},
		LogPub:       logKey.Public().(ed25519.PublicKey),
		Witnesses:    []ed25519.PublicKey{w.Public()},
		MinWitnesses: 1,
	}
	witnessOnly := &Policy{Signers: full.Signers, Witnesses: full.Witnesses, MinWitnesses: 1}

	art := []byte("fuzz artifact")
	pub := &Publisher{Signer: signer, Log: NewLog("fuzz/releases", logKey), Witnesses: []*Witness{w}, Tool: "fuzz"}
	valid, err := pub.Publish(art, "m")
	if err != nil {
		f.Fatal(err)
	}
	// The cross-log bundle: a signed envelope next to a checkpoint of a
	// log that never held it, countersigned by the trusted witness.
	unrelated := &Publisher{Signer: signer, Log: NewLog("fuzz/unrelated", logKey), Witnesses: []*Witness{newWitness()}, Tool: "fuzz"}
	foreign, err := unrelated.Publish([]byte("other artifact"), "other")
	if err != nil {
		f.Fatal(err)
	}
	crossLog := &Bundle{Envelope: valid.Envelope, Checkpoint: foreign.Checkpoint}
	pastEnd := *valid
	pastEnd.LeafIndex = valid.Checkpoint.Size
	overLong := *valid
	overLong.InclusionProof = append(append([]Hash(nil), valid.InclusionProof...), LeafHash(art))

	encode := func(b *Bundle) []byte {
		data, err := EncodeBundle(b)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	good := encode(valid)
	root := valid.Checkpoint.Root.String()
	f.Add(good)
	f.Add(encode(crossLog))
	f.Add(good[:len(good)/2])
	f.Add([]byte(strings.Replace(string(good), root, root[:62], 1)))
	f.Add(encode(&pastEnd))
	f.Add(encode(&overLong))
	f.Add(valid.Envelope.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := DecodeEnvelope(data); err == nil && !bytes.Equal(e.Encode(), data) {
			t.Fatalf("accepted envelope re-encodes to %q", e.Encode())
		}
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		digest := b.Envelope.ArtifactDigest
		verdicts := func(b *Bundle) [2]bool {
			return [2]bool{full.Verify(digest, b) == nil, witnessOnly.Verify(digest, b) == nil}
		}
		got := verdicts(b)
		if got[0] || got[1] {
			cp := b.Checkpoint
			if cp == nil {
				t.Fatal("accepted a bundle without a checkpoint")
			}
			if err := VerifyInclusion(LeafHash(b.Envelope.Encode()), b.LeafIndex, cp.Size, b.InclusionProof, cp.Root); err != nil {
				t.Fatalf("accepted (full %v, witness-only %v) an envelope not proven under its checkpoint: %v", got[0], got[1], err)
			}
		}
		enc, err := EncodeBundle(b)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBundle(enc)
		if err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v", err)
		}
		if again, _ := EncodeBundle(back); !bytes.Equal(again, enc) {
			t.Fatalf("bundle does not round-trip:\n%s\n%s", enc, again)
		}
		if verdicts(back) != got {
			t.Fatalf("verdicts %v became %v after a round trip", got, verdicts(back))
		}
	})
}
