//go:build !amd64 || purego

package cpu

import "runtime"

// Portable detection: without the CPUID probe (non-amd64, or amd64
// built with purego) no amd64 SIMD kernels can run, so only the
// architectural baselines that need no runtime check are reported.
// NEON is baseline on arm64 and is reported even though no kernels sit
// behind it yet — Summary then names the host correctly and the tier
// stays generic until TierNEON gains an implementation.
func detect() Features {
	return Features{NEON: runtime.GOARCH == "arm64"}
}
