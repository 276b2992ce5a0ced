//go:build !amd64 || purego

package tensor

// The portable build has no accelerated FP32 element-wise kernels; the
// Go bodies in elementwise.go do all the work.

func convTapsF32Accel(acc, x []float32, offs []int32, w []float32, bias float32, fromAcc bool) int {
	return 0
}

func padRowsF32Accel(dst []float32, rowOff []int32, src []float32, cols int) bool { return false }

func padSplit2RowsF32Accel(dst []float32, rowOff []int32, offE, offO int, src []float32, cols int) bool {
	return false
}

func gatherStride2F32Accel(dst, x []float32) int { return 0 }

func epilogueTileF32Accel(dst []float32, ldd int, src []float32, lds, rows, cols int, scale, shift []float32, step int, act Act) bool {
	return false
}
