// Package cpu detects the host's SIMD capabilities at startup and maps
// them to the micro-kernel tiers the tensor package dispatches between.
//
// On amd64 the detector executes CPUID (and XGETBV, to confirm the OS
// actually saves the wider register state) and reports SSE2, AVX2/FMA
// and the AVX-512 subsets the kernels require (F, BW, VL); every
// other GOARCH — and amd64 built with the purego tag — takes
// the portable fallback, which reports no SIMD and pins execution to
// the generic tier. NEON on arm64 is detected (it is part of the
// architectural baseline) but has no kernels behind it, so arm64 runs
// the generic tier.
//
// Selection policy: Best returns the widest tier that both the host
// supports and the binary has kernels for. The VEDLIOT_CPU environment
// variable forces a narrower tier ("generic", "sse2", "avx2",
// "avx512") for debugging and cross-variant parity testing; it can
// never force a tier the host does not support.
package cpu

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// Tier identifies one micro-kernel implementation level. Higher tiers
// strictly widen the vectors the kernels operate on.
type Tier int

const (
	// TierGeneric is the portable pure-Go kernel set, correct on every
	// GOARCH and under the purego build tag.
	TierGeneric Tier = iota
	// TierSSE2 is the amd64 baseline 128-bit kernel set (SSE2 is
	// architecturally guaranteed on amd64).
	TierSSE2
	// TierAVX2 is the 256-bit kernel set (AVX2 integer + AVX float).
	TierAVX2
	// TierAVX512 is the 512-bit ZMM kernel set. It requires the F, BW
	// and VL subsets plus OS opmask/ZMM state (XCR0), the baseline every
	// AVX-512 server core since Skylake-SP provides.
	TierAVX512
)

// String returns the tier's canonical lowercase name.
func (t Tier) String() string {
	switch t {
	case TierGeneric:
		return "generic"
	case TierSSE2:
		return "sse2"
	case TierAVX2:
		return "avx2"
	case TierAVX512:
		return "avx512"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier converts a tier name (as produced by Tier.String) back to a
// Tier.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "generic", "purego":
		return TierGeneric, nil
	case "sse2":
		return TierSSE2, nil
	case "avx2":
		return TierAVX2, nil
	case "avx512":
		return TierAVX512, nil
	}
	return TierGeneric, fmt.Errorf("cpu: unknown kernel tier %q", s)
}

// Features is the raw capability set the detector observed. Fields
// beyond what the current kernel tiers consume (FMA, SSSE3) are reported
// so benchmarks and bug reports can name the host precisely.
type Features struct {
	// SSE2 is true on every amd64 host (architectural baseline).
	SSE2 bool
	// SSSE3 reports PSHUFB at 128 bits.
	SSSE3 bool
	// SSE41 reports SSE4.1 (PMULLD and friends).
	SSE41 bool
	// AVX reports 256-bit float vectors with OS state support.
	AVX bool
	// AVX2 reports 256-bit integer vectors.
	AVX2 bool
	// FMA reports fused multiply-add. The FP32 micro-kernels
	// deliberately do not use it — fusing skips the intermediate
	// rounding the scalar reference performs, which would break the
	// engine's bitwise-parity contract — but it is detected and
	// reported for roofline modeling.
	FMA bool
	// AVX512F, AVX512BW and AVX512VL report the individual AVX-512
	// subsets probed, each gated on OS opmask/ZMM state (XGETBV). The
	// ZMM kernels require all three; the split is reported so Summary
	// can name exactly what a partial-AVX-512 host is missing.
	AVX512F  bool
	AVX512BW bool
	AVX512VL bool
	// AVX512 reports the full F+BW+VL subset the TierAVX512 kernels
	// require, with OS ZMM state.
	AVX512 bool
	// AVX512VBMI reports VPERMI2B, the 512-bit byte-table kernel's
	// lookup (with OS ZMM state). It is a detected fact, not a tier: the
	// AVX-512 tier runs the 256-bit byte table where it is missing.
	AVX512VBMI bool
	// AVX512VNNI reports VPDPBUSD and VPDPWSSD, the fused byte and word
	// dot-product accumulates (with OS ZMM state). A detected fact like
	// AVX512VBMI, not a tier: the INT8 GEMM convolutions run the u8×s8
	// VPDPBUSD body where it is set and the tier is AVX-512, so a clamp
	// below AVX-512 turns it off with the rest of AVX-512.
	AVX512VNNI bool
	// NEON reports the arm64 Advanced SIMD baseline.
	NEON bool
}

var (
	detectOnce sync.Once
	detected   Features
	bestOnce   sync.Once
	bestTier   Tier
)

// Detect returns the host's observed capability set. The probe runs
// once; subsequent calls return the cached result.
func Detect() Features {
	detectOnce.Do(func() { detected = detect() })
	return detected
}

// maxSupported returns the widest tier the host can execute kernels
// for, ignoring the environment override.
func maxSupported(f Features) Tier {
	switch {
	case f.AVX512:
		return TierAVX512
	case f.AVX2:
		return TierAVX2
	case f.SSE2:
		return TierSSE2
	default:
		return TierGeneric
	}
}

// Best returns the micro-kernel tier the binary should execute:
// the widest tier with implemented kernels that the host supports,
// narrowed (never widened) by the VEDLIOT_CPU environment variable.
// The result is computed once at first use.
func Best() Tier {
	bestOnce.Do(func() {
		bestTier = maxSupported(Detect())
		if s := os.Getenv("VEDLIOT_CPU"); s != "" {
			if t, err := ParseTier(s); err == nil && t <= bestTier {
				bestTier = t
			}
		}
	})
	return bestTier
}

// Summary renders the detected capability set and the selected tier as
// one line, e.g. "tier avx512 (sse2 ssse3 sse4.1 avx avx2 fma avx512f
// avx512bw avx512vl avx512vbmi)" — what vedliot-bench prints so perf
// artifacts are interpretable across machines. The AVX-512 subsets are listed
// individually so a host that fails the F+BW+VL gate still names what
// it does have.
func Summary() string {
	f := Detect()
	var caps []string
	add := func(ok bool, name string) {
		if ok {
			caps = append(caps, name)
		}
	}
	add(f.SSE2, "sse2")
	add(f.SSSE3, "ssse3")
	add(f.SSE41, "sse4.1")
	add(f.AVX, "avx")
	add(f.AVX2, "avx2")
	add(f.FMA, "fma")
	add(f.AVX512F, "avx512f")
	add(f.AVX512BW, "avx512bw")
	add(f.AVX512VL, "avx512vl")
	add(f.AVX512VBMI, "avx512vbmi")
	add(f.AVX512VNNI, "avx512vnni")
	add(f.NEON, "neon")
	if len(caps) == 0 {
		caps = append(caps, "portable")
	}
	return fmt.Sprintf("tier %s (%s)", Best(), strings.Join(caps, " "))
}
