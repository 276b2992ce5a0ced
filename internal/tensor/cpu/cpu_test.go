package cpu

import (
	"runtime"
	"strings"
	"testing"
)

func TestTierString(t *testing.T) {
	cases := map[Tier]string{
		TierGeneric: "generic",
		TierSSE2:    "sse2",
		TierAVX2:    "avx2",
		TierAVX512:  "avx512",
		Tier(99):    "tier(99)",
	}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, want)
		}
	}
}

func TestParseTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
	}{
		{"generic", TierGeneric},
		{"purego", TierGeneric},
		{"sse2", TierSSE2},
		{"AVX2", TierAVX2},
		{" avx2 ", TierAVX2},
		{"avx512", TierAVX512},
		{"AVX512", TierAVX512},
	} {
		got, err := ParseTier(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseTier("avx9000"); err == nil {
		t.Error("ParseTier(avx9000) should fail")
	}
}

// TestTierRoundTrip pins the String/ParseTier round trip for every
// dispatchable tier, so bench artifacts and the VEDLIOT_CPU override
// always agree on names.
func TestTierRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierGeneric, TierSSE2, TierAVX2, TierAVX512} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v; want %v, nil", tier.String(), got, err, tier)
		}
	}
}

func TestTierOrdering(t *testing.T) {
	if !(TierGeneric < TierSSE2 && TierSSE2 < TierAVX2 && TierAVX2 < TierAVX512) {
		t.Fatal("tiers must be ordered generic < sse2 < avx2 < avx512 for the override clamp")
	}
}

func TestDetectConsistency(t *testing.T) {
	f := Detect()
	if f.AVX2 && !f.AVX {
		t.Error("AVX2 implies AVX")
	}
	if f.AVX && !f.SSE2 {
		t.Error("AVX on amd64 implies SSE2")
	}
	if f.AVX512 && !(f.AVX512F && f.AVX512BW && f.AVX512VL) {
		t.Error("AVX512 composite requires the F, BW and VL subsets")
	}
	if runtime.GOARCH == "amd64" && f.NEON {
		t.Error("NEON reported on amd64")
	}
}

func TestMaxSupported(t *testing.T) {
	for _, tc := range []struct {
		f    Features
		want Tier
	}{
		{Features{}, TierGeneric},
		{Features{NEON: true}, TierGeneric}, // no NEON kernels yet
		{Features{SSE2: true}, TierSSE2},
		{Features{SSE2: true, AVX: true, AVX2: true}, TierAVX2},
		// A host with only partial AVX-512 subsets stays on AVX2.
		{Features{SSE2: true, AVX: true, AVX2: true, AVX512F: true}, TierAVX2},
		{Features{SSE2: true, AVX: true, AVX2: true,
			AVX512F: true, AVX512BW: true, AVX512VL: true, AVX512: true}, TierAVX512},
	} {
		if got := maxSupported(tc.f); got != tc.want {
			t.Errorf("maxSupported(%+v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestBestWithinSupport(t *testing.T) {
	// Best honors VEDLIOT_CPU only downward, so the result can never
	// exceed what the host supports.
	if best, max := Best(), maxSupported(Detect()); best > max {
		t.Errorf("Best() = %v exceeds host support %v", best, max)
	}
}

func TestSummary(t *testing.T) {
	s := Summary()
	if !strings.HasPrefix(s, "tier "+Best().String()) {
		t.Errorf("Summary() = %q, want prefix %q", s, "tier "+Best().String())
	}
	if runtime.GOARCH == "amd64" && Best() >= TierSSE2 && !strings.Contains(s, "sse2") {
		t.Errorf("Summary() = %q should list sse2 on amd64", s)
	}
	// Summary names the individual AVX-512 subsets, never the bare
	// composite, so partial hosts are distinguishable in artifacts.
	if Detect().AVX512 {
		for _, sub := range []string{"avx512f", "avx512bw", "avx512vl"} {
			if !strings.Contains(s, sub) {
				t.Errorf("Summary() = %q should list %s", s, sub)
			}
		}
	}
	// The detected-fact bits appear exactly when Features has them.
	for _, c := range []struct {
		name string
		has  bool
	}{{"avx512vbmi", Detect().AVX512VBMI}, {"avx512vnni", Detect().AVX512VNNI}} {
		if strings.Contains(s, c.name) != c.has {
			t.Errorf("Summary() = %q: lists %s = %v, Features has it = %v", s, c.name, !c.has, c.has)
		}
	}
}
