//go:build amd64 && !purego

package cpu

// Runtime feature probe for amd64: CPUID enumerates the ISA extensions
// and XGETBV confirms the OS context-switches the wider register files
// (a hypervisor or minimal kernel can expose AVX in CPUID while never
// saving YMM state — executing VEX code there corrupts registers).

// cpuid executes the CPUID instruction with the given EAX/ECX inputs.
// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports the
// state components the OS has enabled. Implemented in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

const (
	// CPUID.1:ECX bits.
	bitSSSE3   = 1 << 9
	bitSSE41   = 1 << 19
	bitOSXSAVE = 1 << 27
	bitAVX     = 1 << 28
	bitFMA     = 1 << 12
	// CPUID.7.0:EBX bits.
	bitAVX2     = 1 << 5
	bitAVX512F  = 1 << 16
	bitAVX512BW = 1 << 30
	bitAVX512VL = 1 << 31
	// CPUID.7.0:ECX bits.
	bitAVX512VBMI = 1 << 1
	bitAVX512VNNI = 1 << 11
	// XCR0 bits: SSE+YMM state for AVX, plus opmask/ZMM hi for AVX-512.
	xcr0AVX    = 0x6
	xcr0AVX512 = 0xe6
)

func detect() Features {
	f := Features{SSE2: true} // architectural baseline on amd64

	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	f.SSSE3 = ecx1&bitSSSE3 != 0
	f.SSE41 = ecx1&bitSSE41 != 0

	osxsave := ecx1&bitOSXSAVE != 0
	var xcr0 uint64
	if osxsave {
		lo, hi := xgetbv()
		xcr0 = uint64(hi)<<32 | uint64(lo)
	}
	ymmOK := osxsave && xcr0&xcr0AVX == xcr0AVX
	zmmOK := osxsave && xcr0&xcr0AVX512 == xcr0AVX512

	f.AVX = ecx1&bitAVX != 0 && ymmOK
	f.FMA = ecx1&bitFMA != 0 && ymmOK

	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ := cpuid(7, 0)
		f.AVX2 = f.AVX && ebx7&bitAVX2 != 0
		f.AVX512F = zmmOK && ebx7&bitAVX512F != 0
		f.AVX512BW = zmmOK && ebx7&bitAVX512BW != 0
		f.AVX512VL = zmmOK && ebx7&bitAVX512VL != 0
		f.AVX512 = f.AVX512F && f.AVX512BW && f.AVX512VL
		f.AVX512VBMI = f.AVX512 && ecx7&bitAVX512VBMI != 0
		f.AVX512VNNI = f.AVX512 && ecx7&bitAVX512VNNI != 0
	}
	return f
}
