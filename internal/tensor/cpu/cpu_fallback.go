//go:build !amd64 || purego

package cpu

import "runtime"

// Portable detection: without the CPUID probe (non-amd64, or amd64
// built with purego) no amd64 SIMD kernels can run, so only the
// architectural baselines that need no runtime check are reported.
// NEON is baseline on arm64 and is reported even though no kernels sit
// behind it, so Summary names the host correctly; the tier stays
// generic.
func detect() Features {
	return Features{NEON: runtime.GOARCH == "arm64"}
}
