//go:build !amd64 || purego || noasm

package tensor

// The portable build has no accelerated element-wise kernels; the
// scalar tails in elementwise.go do all the work.

func axpyF32Accel(dst, x []float32, a float32) int             { return 0 }
func gatherStride2F32Accel(dst, x []float32) int               { return 0 }
func scaleShiftF32Accel(span []float32, s, sh float32) int     { return 0 }
func scaleShiftReluF32Accel(span []float32, s, sh float32) int { return 0 }
func reluF32Accel(span []float32) int                          { return 0 }
func hswishF32Accel(span []float32) int                        { return 0 }
func hsigmoidF32Accel(span []float32) int                      { return 0 }
