package nn

import "fmt"

// FoldBatchNormStats precomputes inference-mode batch normalization as
// one per-channel affine y = scale*x + shift from the four statistic
// tensors. It is the single source of this arithmetic: the reference
// interpreter, the compiled engines' kernel binders, the lowering IR's
// constant-folding pass and the toolchain's conv+BN fold all call it, so
// folding at compile time is bitwise identical to folding at run time.
// A statistic without exactly one element per channel is an error:
// Validate does not check their lengths, so a loaded graph can carry one.
func FoldBatchNormStats(channels int, gamma, beta, mean, variance []float32, eps float32) (scale, shift []float32, err error) {
	for _, s := range []struct {
		name string
		v    []float32
	}{{GammaKey, gamma}, {BetaKey, beta}, {MeanKey, mean}, {VarKey, variance}} {
		if len(s.v) != channels {
			return nil, nil, fmt.Errorf("batchnorm %s has %d elements for %d channels", s.name, len(s.v), channels)
		}
	}
	if eps == 0 {
		eps = 1e-5
	}
	scale = make([]float32, channels)
	shift = make([]float32, channels)
	for i := range scale {
		inv := 1 / sqrt32(variance[i]+eps)
		scale[i] = gamma[i] * inv
		shift[i] = beta[i] - mean[i]*scale[i]
	}
	return scale, shift, nil
}

// sqrt32 is a pure-float32 Newton square root, kept independent of
// math.Sqrt's float64 rounding so folded batch-norm results are exactly
// reproducible.
func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 32; i++ {
		nx := 0.5 * (x + v/x)
		if nx == x {
			break
		}
		x = nx
	}
	return x
}
