package rvbackend

import (
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/soc"
	"vedliot/internal/tensor"
)

// interpretPlan executes a QuantPlan in pure Go for one sample,
// returning every value's code buffer. It is an independent restatement
// of the plan's documented step semantics (not a transcription of the
// codegen), used to localize a firmware divergence to a single step.
func interpretPlan(t *testing.T, plan *inference.QuantPlan, in map[string]*tensor.Tensor) [][]int8 {
	t.Helper()
	vals := make([][]int8, len(plan.Values))
	for i, v := range plan.Values {
		vals[i] = make([]int8, v.Elems)
	}
	for i, v := range plan.InputVals {
		src := in[plan.InputNames[i]].F32
		tensor.QuantizeSlice(vals[v], src[:plan.Values[v].Elems], plan.Values[v].QP)
	}
	clamp := func(x int32) int8 {
		if x > 127 {
			return 127
		}
		if x < -128 {
			return -128
		}
		return int8(x)
	}
	for si := range plan.Steps {
		st := &plan.Steps[si]
		out := vals[st.Out]
		switch {
		case st.Conv != nil:
			c := st.Conv
			g := c.Geom
			taps := g.ICPerG * g.KH * g.KW
			groups := g.InC / g.ICPerG
			x := vals[st.Ins[0]]
			for grp := 0; grp < groups; grp++ {
				for oy := 0; oy < g.OutH; oy++ {
					for ox := 0; ox < g.OutW; ox++ {
						for o := 0; o < g.OCPerG; o++ {
							oc := grp*g.OCPerG + o
							acc := c.Bias[oc]
							ti := 0
							for ic := 0; ic < g.ICPerG; ic++ {
								ch := grp*g.ICPerG + ic
								for ky := 0; ky < g.KH; ky++ {
									iy := oy*g.SH - g.PH + ky
									for kx := 0; kx < g.KW; kx++ {
										ix := ox*g.SW - g.PW + kx
										w := int32(c.W[oc*taps+ti])
										ti++
										if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
											continue
										}
										acc += w * (int32(x[(ch*g.InH+iy)*g.InW+ix]) - c.ZPIn)
									}
								}
							}
							code := clamp(c.ZPOut + c.Req[oc].Apply(acc))
							if c.Post != nil {
								code = c.Post[oc][int(code)+128]
							}
							out[(oc*g.OutH+oy)*g.OutW+ox] = code
						}
					}
				}
			}
		case st.Dense != nil:
			d := st.Dense
			x := vals[st.Ins[0]]
			for o := 0; o < d.OutF; o++ {
				acc := d.Bias[o]
				for i := 0; i < d.InF; i++ {
					acc += int32(d.W[o*d.InF+i]) * (int32(x[i]) - d.ZPIn)
				}
				code := clamp(d.ZPOut + d.Req[o].Apply(acc))
				if d.Post != nil {
					code = d.Post[o][int(code)+128]
				}
				out[o] = code
			}
		case st.LUT != nil:
			x := vals[st.Ins[0]]
			if st.LUT.Table == nil {
				copy(out, x)
			} else {
				for i, c := range x {
					out[i] = st.LUT.Table[int(c)+128]
				}
			}
		case st.LUTPerChannel != nil:
			pc := st.LUTPerChannel
			x := vals[st.Ins[0]]
			for ch := 0; ch < pc.C; ch++ {
				for i := 0; i < pc.HW; i++ {
					out[ch*pc.HW+i] = pc.Tables[ch][int(x[ch*pc.HW+i])+128]
				}
			}
		case st.MaxPool != nil:
			mp := st.MaxPool
			x := vals[st.Ins[0]]
			for c := 0; c < mp.C; c++ {
				for oy := 0; oy < mp.OutH; oy++ {
					for ox := 0; ox < mp.OutW; ox++ {
						best := int32(-129)
						for ky := 0; ky < mp.KH; ky++ {
							iy := oy*mp.SH - mp.PH + ky
							if iy < 0 || iy >= mp.InH {
								continue
							}
							for kx := 0; kx < mp.KW; kx++ {
								ix := ox*mp.SW - mp.PW + kx
								if ix < 0 || ix >= mp.InW {
									continue
								}
								v := int32(x[(c*mp.InH+iy)*mp.InW+ix])
								if v > best {
									best = v
								}
							}
						}
						code := int8(best)
						if best == -129 {
							code = mp.Empty
						}
						if mp.Recode != nil {
							code = mp.Recode[int(code)+128]
						}
						out[(c*mp.OutH+oy)*mp.OutW+ox] = code
					}
				}
			}
		case st.GlobalAvgPool != nil:
			gp := st.GlobalAvgPool
			x := vals[st.Ins[0]]
			for c := 0; c < gp.C; c++ {
				sum := int32(0)
				for i := 0; i < gp.HW; i++ {
					sum += int32(x[c*gp.HW+i])
				}
				out[c] = clamp(gp.ZPOut + gp.Req.Apply(sum-int32(gp.HW)*gp.ZPIn))
			}
		case st.Add != nil:
			for i := range out {
				acc := st.Add.ZPOut
				for op, tbl := range st.Add.Tables {
					acc += tbl[int(vals[st.Ins[op]][i])+128]
				}
				out[i] = clamp(acc)
			}
		case st.Island != nil:
			srcs := make([][]int8, len(st.Ins))
			for k, in := range st.Ins {
				srcs[k] = vals[in]
			}
			if err := st.Island(1, out, srcs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return vals
}

// TestFirmwareStepwiseAgainstPlanInterpretation compares every firmware
// value buffer against the host interpretation of the plan, after first
// checking the interpretation itself against the native engine. Unlike
// the end-to-end parity tests, a failure here names the exact step that
// diverged.
func TestFirmwareStepwiseAgainstPlanInterpretation(t *testing.T) {
	models := map[string]*nn.Graph{
		"tiny-mlp": nn.MLP("tiny", []int{16, 8, 4}, nn.BuildOptions{Weights: true, Seed: 7}),
		"lenet":    nn.LeNet(12, 6, nn.BuildOptions{Weights: true, Seed: 5}),
	}
	for name, g := range models {
		t.Run(name, func(t *testing.T) {
			samples, err := nn.SyntheticCalibration(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			schema, err := optimize.Calibrate(g, samples)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := inference.BuildQuantPlan(g, schema)
			if err != nil {
				t.Fatal(err)
			}
			in, err := nn.SyntheticInput(g, 1, 11)
			if err != nil {
				t.Fatal(err)
			}
			want := interpretPlan(t, plan, in)

			// The interpretation must match the native engine at the
			// declared outputs.
			q, err := inference.CompileQuantized(g, schema)
			if err != nil {
				t.Fatal(err)
			}
			nat, err := q.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			for i, oname := range plan.OutputNames {
				v := plan.OutputVals[i]
				got := make([]float32, plan.Values[v].Elems)
				tensor.DequantizeSlice(got, want[v], plan.Values[v].QP)
				for j := range got {
					if got[j] != nat[oname].F32[j] {
						t.Fatalf("plan interpretation diverges from native at output %q elem %d: %v vs %v",
							oname, j, got[j], nat[oname].F32[j])
					}
				}
			}

			for _, noCFU := range []bool{false, true} {
				exe, err := Backend{Schema: schema, NoCFU: noCFU}.Compile(g)
				if err != nil {
					t.Fatal(err)
				}
				p := exe.(*Program)
				if _, err := p.Run(in); err != nil {
					t.Fatal(err)
				}
				ram := p.m.RAM.Bytes()
				for si := range plan.Steps {
					st := &plan.Steps[si]
					v := st.Out
					got := readCodes(ram, p.img.bufAddr[v]-soc.RAMBase, plan.Values[v].Elems)
					for j := range got {
						if got[j] != want[v][j] {
							t.Fatalf("NoCFU=%v: step %d %q (%s): value %q elem %d: firmware %d, want %d",
								noCFU, si, st.Name, st.Op, plan.Values[v].Name, j, got[j], want[v][j])
						}
					}
				}
			}
		})
	}
}
