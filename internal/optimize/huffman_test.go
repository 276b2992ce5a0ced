package optimize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vedliot/internal/nn"
)

func TestHuffmanRoundTrip(t *testing.T) {
	symbols := []uint16{0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 0, 1, 2, 3}
	freq := map[uint16]int64{}
	for _, s := range symbols {
		freq[s]++
	}
	code, err := BuildHuffman(freq)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := code.Decode(enc, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if dec[i] != symbols[i] {
			t.Fatalf("decode[%d] = %d, want %d", i, dec[i], symbols[i])
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	code, err := BuildHuffman(map[uint16]int64{7: 100})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode([]uint16{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := code.Decode(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 || dec[0] != 7 {
		t.Errorf("dec = %v", dec)
	}
}

func TestHuffmanRejectsBadInput(t *testing.T) {
	if _, err := BuildHuffman(nil); err == nil {
		t.Error("accepted empty alphabet")
	}
	if _, err := BuildHuffman(map[uint16]int64{1: 0}); err == nil {
		t.Error("accepted zero frequency")
	}
	code, _ := BuildHuffman(map[uint16]int64{1: 5, 2: 3})
	if _, err := code.Encode([]uint16{9}); err == nil {
		t.Error("encoded unknown symbol")
	}
}

func TestHuffmanOptimality(t *testing.T) {
	// A skewed distribution must compress below the fixed-width coding.
	freq := map[uint16]int64{0: 1000, 1: 10, 2: 5, 3: 1}
	code, err := BuildHuffman(freq)
	if err != nil {
		t.Fatal(err)
	}
	bits := code.EncodedBits(freq)
	total := int64(1016)
	fixed := total * 2 // 2 bits for 4 symbols
	if bits >= fixed {
		t.Errorf("huffman %d bits >= fixed %d bits", bits, fixed)
	}
	// Kraft inequality must hold with equality for a complete code.
	var kraft float64
	for _, n := range code.lengths {
		kraft += 1 / float64(int64(1)<<uint(n))
	}
	if kraft > 1.0001 {
		t.Errorf("Kraft sum %v > 1: not a prefix code", kraft)
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		alpha := rng.Intn(30) + 1
		symbols := make([]uint16, count)
		freq := map[uint16]int64{}
		for i := range symbols {
			// Skewed distribution exercises variable code lengths.
			s := uint16(rng.Intn(alpha) * rng.Intn(2))
			symbols[i] = s
			freq[s]++
		}
		code, err := BuildHuffman(freq)
		if err != nil {
			return false
		}
		enc, err := code.Encode(symbols)
		if err != nil {
			return false
		}
		dec, err := code.Decode(enc, count)
		if err != nil {
			return false
		}
		for i := range symbols {
			if dec[i] != symbols[i] {
				return false
			}
		}
		// Measured size must match EncodedBits.
		if int64(len(enc)) != (code.EncodedBits(freq)+7)/8 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitWriterReader(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(0b101, 3)
	w.WriteBits(0b01, 2)
	w.WriteBits(0b11111111, 8)
	r := NewBitReader(w.Bytes())
	want := []uint8{1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for i, wb := range want {
		b, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if b != wb {
			t.Errorf("bit %d = %d, want %d", i, b, wb)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xff})
	for i := 0; i < 8; i++ {
		if _, err := r.ReadBit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.ReadBit(); err == nil {
		t.Error("read past end of stream")
	}
}

func TestDeepCompressEndToEnd(t *testing.T) {
	// LeNet-300-100 (the Deep Compression headline subject): pruning to
	// 90% + 6-bit clustering + Huffman should yield a ~25-50x ratio.
	g := nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 21})
	rep, err := DeepCompress(g, DeepCompressConfig{Sparsity: 0.92, ClusterBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OriginalBytes == 0 || rep.CompressedBytes == 0 {
		t.Fatal("degenerate sizes")
	}
	ratio := rep.Ratio()
	if ratio < 20 || ratio > 80 {
		t.Errorf("compression ratio = %.1fx, want 20-80x", ratio)
	}
	// Stage sizes must be monotonically non-increasing.
	for i := 1; i < len(rep.Stages); i++ {
		if rep.Stages[i].Bytes > rep.Stages[i-1].Bytes {
			t.Errorf("stage %q grew: %d -> %d",
				rep.Stages[i].Stage, rep.Stages[i-1].Bytes, rep.Stages[i].Bytes)
		}
	}
}

func TestSparseEncodedBytesShrinksWithSparsity(t *testing.T) {
	g1 := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 3})
	g2 := g1.Clone()
	if _, err := MagnitudePrune(g1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := MagnitudePrune(g2, 0.95); err != nil {
		t.Fatal(err)
	}
	b1 := SparseEncodedBytes(g1, 32)
	b2 := SparseEncodedBytes(g2, 32)
	if b2 >= b1 {
		t.Errorf("95%% sparse (%d B) not smaller than 50%% sparse (%d B)", b2, b1)
	}
}
