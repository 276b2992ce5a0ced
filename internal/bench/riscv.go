package bench

import (
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/rvbackend"
	"vedliot/internal/tensor"
)

// RISCVBench lowers the smart-mirror gesture classifier onto the
// emulated RISC-V SoC and reproduces the paper's CFU argument (§II-B)
// at model scale: the vector-MAC firmware must be bit-exact against the
// native INT8 engine and at least 2x faster in measured cycles than the
// scalar firmware on the same core.
func RISCVBench() (*Report, error) {
	r := newReport("§II-B — INT8 firmware on the emulated RISC-V+CFU SoC")

	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		return nil, err
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		return nil, err
	}
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		return nil, err
	}
	const batch = 8
	in, err := nn.SyntheticInput(g, batch, 11)
	if err != nil {
		return nil, err
	}
	want, err := q.Run(in)
	if err != nil {
		return nil, err
	}
	r.linef("model %s, batch %d, native INT8 engine as reference", g.Name, batch)

	cycles := map[bool]uint64{}
	for _, noCFU := range []bool{false, true} {
		b := rvbackend.Backend{Schema: schema, NoCFU: noCFU}
		exe, err := b.Compile(g)
		if err != nil {
			return nil, err
		}
		got, err := exe.Run(in)
		if err != nil {
			return nil, err
		}
		p := exe.(*rvbackend.Program)
		cycles[noCFU] = p.CyclesPerInference()
		exact := bitExact(want, got)
		agree, rows := top1Agreement(want[g.Outputs[0]], got[g.Outputs[0]], 0)
		info := p.Image()
		lat, _ := p.PredictLatency(1)
		r.linef("%-16s %8d cycles/inference  %6.2fms @100MHz  text %d words  bit-exact %v",
			b.Name(), cycles[noCFU], float64(lat)/float64(time.Millisecond), info.TextWords, exact)
		r.check("firmware_bit_exact_"+b.Name(), exact)
		r.check("top1_parity_"+b.Name(), agree == rows)
	}

	speedup := float64(cycles[true]) / float64(cycles[false])
	r.linef("CFU speedup: %.2fx in measured cycles (scalar %d vs cfu %d)",
		speedup, cycles[true], cycles[false])
	r.check("cfu_speedup_ge_2x", speedup >= 2)
	r.metric("riscv_cfu_cycle_speedup", "x", speedup)
	r.metric("riscv_cfu_cycles_per_inference", "cycles", float64(cycles[false]))
	return r, nil
}

// bitExact reports whether two output maps carry identical FP32 values.
func bitExact(want, got map[string]*tensor.Tensor) bool {
	if len(want) != len(got) {
		return false
	}
	for k, wt := range want {
		gt, ok := got[k]
		if !ok || !wt.Shape.Equal(gt.Shape) {
			return false
		}
		for i := range wt.F32 {
			if wt.F32[i] != gt.F32[i] {
				return false
			}
		}
	}
	return true
}

// top1Agreement counts the rows of two batched outputs whose top-1
// class agrees. A flip still agrees when the reference separates the
// two classes by at most tieTol, a tie it cannot resolve either (0 asks
// for the same class). Outputs of different sizes agree on no row.
func top1Agreement(want, got *tensor.Tensor, tieTol float64) (agree, rows int) {
	rows = want.Shape[0]
	if got == nil || len(got.F32) != len(want.F32) {
		return 0, rows
	}
	per := len(want.F32) / rows
	for b := 0; b < rows; b++ {
		w, o := want.F32[b*per:(b+1)*per], got.F32[b*per:(b+1)*per]
		wBest, oBest := argmax(w), argmax(o)
		if wBest == oBest || float64(w[wBest]-w[oBest]) <= tieTol {
			agree++
		}
	}
	return agree, rows
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
