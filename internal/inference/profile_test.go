package inference

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// stepProfile times every step of a compiled plan by wrapping its bound
// kernel: the plan, arena and scratch are exactly Run's, so the step
// times sum to the engine's share of one Run. Each step reports the
// median over reps, and the estimated cost its ranges stated.
type stepProfile struct {
	names   []string
	samples [][]time.Duration
	estOps  []int64
}

// wrap times every bound kernel of a plan's steps, whatever its
// element type.
func wrap[T float32 | int8](p *stepProfile, steps []step[T]) {
	for si := range steps {
		i, kern := len(p.names), steps[si].kern
		p.names = append(p.names, steps[si].op.String()+" "+steps[si].name)
		p.samples = append(p.samples, nil)
		p.estOps = append(p.estOps, 0)
		steps[si].kern = func(rc *runCtx, dst []T, srcs [][]T) error {
			e0, t0 := rc.estOps, time.Now()
			err := kern(rc, dst, srcs)
			p.samples[i] = append(p.samples[i], time.Since(t0))
			p.estOps[i] = rc.estOps - e0
			return err
		}
	}
}

// median sorts a step's samples and returns the middle one in us.
func (p *stepProfile) median(i int) float64 {
	s := p.samples[i]
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[len(s)/2].Nanoseconds()) / 1e3
}

// report logs the median of every step, their sum, and one roll-up
// line: us and share of the sum by op kind, largest first.
func (p *stepProfile) report(t *testing.T) {
	var sum float64
	byKind := map[string]float64{}
	var kinds []string
	for i := range p.samples {
		med := p.median(i)
		sum += med
		kind, _, _ := strings.Cut(p.names[i], " ")
		if _, seen := byKind[kind]; !seen {
			kinds = append(kinds, kind)
		}
		byKind[kind] += med
		t.Logf("  %7.1f us  %s", med, p.names[i])
	}
	t.Logf("  %7.1f us  sum of steps", sum)
	sort.SliceStable(kinds, func(a, b int) bool { return byKind[kinds[a]] > byKind[kinds[b]] })
	var roll strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&roll, "  %s %.1f us %.1f%%", k, byKind[k], 100*byKind[k]/sum)
	}
	t.Logf("  by op kind:%s", roll.String())
}

// TestStepProfileBatch1 is the per-step profile of the two served zoo
// models at batch 1 on one worker, FP32 and INT8 — the shape a reply
// waits for (run with -v to read it). Timings are logged, never
// asserted; the test fails only if a run does or a step goes untimed.
func TestStepProfileBatch1(t *testing.T) {
	if testing.Short() {
		t.Skip("timing profile")
	}
	const reps = 31
	models := []*nn.Graph{
		nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1}),
		nn.MobileNetEdge(64, 10, nn.BuildOptions{Weights: true, Seed: 3}),
	}
	for _, g := range models {
		in, err := nn.SyntheticInput(g, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := nn.SyntheticCalibration(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := calibrateVia(g, samples)
		if err != nil {
			t.Fatal(err)
		}
		fp := mustCompile(t, g, WithWorkers(1))
		q, err := CompileQuantized(g, schema, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		var pf, pq stepProfile
		wrap(&pf, fp.steps)
		wrap(&pq, q.steps)
		for _, c := range []struct {
			name string
			run  func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
			p    *stepProfile
		}{{"fp32", fp.Run, &pf}, {"int8", q.Run, &pq}} {
			runs := make([]time.Duration, reps)
			for r := range runs {
				t0 := time.Now()
				if _, err := c.run(in); err != nil {
					t.Fatal(err)
				}
				runs[r] = time.Since(t0)
			}
			sort.Slice(runs, func(a, b int) bool { return runs[a] < runs[b] })
			t.Logf("%s %s batch 1: Run median %.1f us", g.Name, c.name, float64(runs[reps/2].Nanoseconds())/1e3)
			for i, s := range c.p.samples {
				if len(s) != reps {
					t.Errorf("%s %s: step %s timed %d times in %d runs", g.Name, c.name, c.p.names[i], len(s), reps)
				}
			}
			c.p.report(t)
		}
	}
}

// TestFanOutProfileBatch8 is the measurement the fan-out rule rests on:
// every step of the two zoo models at batch 8 on two workers, FP32 and
// INT8, run inline (threshold never reached) and split (threshold
// always reached) in alternation. Per step it logs both medians, the
// estimated cost the step stated and the estimated ops per ns that
// makes inline. The unit-cost weights in parallel.go are chosen so the
// last column stays within a small factor of 32 for every kernel, and
// defaultParallelThreshold is the estimate above which the split column
// wins. Timings are logged, never asserted.
func TestFanOutProfileBatch8(t *testing.T) {
	if testing.Short() {
		t.Skip("timing profile")
	}
	const reps, batch = 21, 8
	models := []*nn.Graph{
		nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1}),
		nn.MobileNetEdge(64, 10, nn.BuildOptions{Weights: true, Seed: 3}),
	}
	type side struct {
		run func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
		p   *stepProfile
	}
	for _, g := range models {
		in, err := nn.SyntheticInput(g, batch, 9)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := nn.SyntheticCalibration(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := calibrateVia(g, samples)
		if err != nil {
			t.Fatal(err)
		}
		var fp, q [2]side // inline, split
		for i, threshold := range []int64{1 << 62, 1} {
			e := mustCompile(t, g, WithWorkers(2), withParallelThreshold(threshold))
			qe, err := CompileQuantized(g, schema, WithWorkers(2), withParallelThreshold(threshold))
			if err != nil {
				t.Fatal(err)
			}
			fp[i], q[i] = side{e.Run, &stepProfile{}}, side{qe.Run, &stepProfile{}}
			wrap(fp[i].p, e.steps)
			wrap(q[i].p, qe.steps)
		}
		for _, c := range []struct {
			name  string
			sides [2]side
		}{{"fp32", fp}, {"int8", q}} {
			for r := 0; r < reps; r++ {
				for _, s := range c.sides {
					if _, err := s.run(in); err != nil {
						t.Fatal(err)
					}
				}
			}
			t.Logf("%s %s batch %d, 2 workers:  inline us   split us  split/inline  est ops  ops/ns", g.Name, c.name, batch)
			inl, spl := c.sides[0].p, c.sides[1].p
			var sumI, sumS float64
			for i, name := range inl.names {
				mi, ms := inl.median(i), spl.median(i)
				sumI += mi
				sumS += ms
				est := float64(inl.estOps[i])
				t.Logf("  %9.1f  %9.1f  %5.2f  2^%4.1f  %5.1f  %s", mi, ms, ms/mi, math.Log2(max(est, 1)), est/(mi*1e3), name)
			}
			t.Logf("  %9.1f  %9.1f  sum of steps", sumI, sumS)
		}
	}
}
