//go:build !amd64 || purego

package tensor

// The portable build has no accelerated integer kernels: every Accel
// hook reports that it handled nothing and the Go bodies in simd.go,
// requant.go and int8.go do all the work.

// FastInt8 reports whether SIMD bodies back the integer kernels; the
// portable bodies are correct but not faster than scalar float code.
const FastInt8 = false

func widenShiftInt8Accel(dst []int16, src []int8, zp int16) int { return 0 }

func packPairShiftInt8Accel(out []int16, ldo int, src []int8, lds, taps, n int, zp int16) bool {
	return false
}

func packQuadXorInt8Accel(out []uint8, ldo int, src []int8, lds, taps, n int) bool { return false }

func gatherStride2Int8Accel(dst, src []int8) int { return 0 }

func sumRowsInt8Accel(sums []int32, x []int8, cols int) bool               { return false }
func scaleRowsInt16Accel(acc []int32, x []int16, f []int16, cols int) bool { return false }

func lut8RowsAccel(dst, src []int8, ld, rows, cols int, tabs []*[256]int8) bool { return false }

func accumLUT32Accel(acc []int32, src []int8, lut *[256]int32, seed int32, fromAcc bool) int {
	return 0
}

func narrowSatInt8Accel(dst []int8, acc []int32) int { return 0 }

func requantTileInt8Accel(dst []int8, ldd int, c []int32, ldc, rows, cols int, req []Requant, zp int32, post []*[256]int8) (int, bool) {
	return 0, false
}

func quantizeSliceAccel(dst []int8, src []float32, inv, zero float64) int { return 0 }

type convPlanesLayout struct{}

func newConvPlanesLayout(k *ConvPlanesInt8) *convPlanesLayout          { return nil }
func convPlanesInt8Accel(k *ConvPlanesInt8, dst, x []int8, lo, hi int) {}
