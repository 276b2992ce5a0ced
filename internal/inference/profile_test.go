package inference

import (
	"fmt"
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
// median over reps.
type stepProfile struct {
	names   []string
	samples [][]time.Duration
}

// wrap times every bound kernel of a plan's steps, whatever its
// element type.
func wrap[T float32 | int8](p *stepProfile, steps []step[T]) {
	for si := range steps {
		i, kern := len(p.names), steps[si].kern
		p.names = append(p.names, steps[si].op.String()+" "+steps[si].name)
		p.samples = append(p.samples, nil)
		steps[si].kern = func(rc *runCtx, dst []T, srcs [][]T) error {
			t0 := time.Now()
			err := kern(rc, dst, srcs)
			p.samples[i] = append(p.samples[i], time.Since(t0))
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
// models at batch 1, FP32 and INT8 — the shape a reply waits for (run
// with -v to read it). Timings are logged, never asserted; the test
// fails only if a run does or a step goes untimed.
func TestStepProfileBatch1(t *testing.T) { profileSteps(t, 1, 31) }

// TestStepProfileBatch8 is the same profile at batch 8, the engine
// study's middle row and the shape a coalesced flood runs.
func TestStepProfileBatch8(t *testing.T) { profileSteps(t, 8, 21) }

// profileSteps logs every step's median over reps runs of the two
// served zoo models at one batch size, FP32 and INT8, and each plan's
// Run median and roll-up by op kind.
func profileSteps(t *testing.T, batch, reps int) {
	if testing.Short() {
		t.Skip("timing profile")
	}
	models := []*nn.Graph{
		nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1}),
		nn.MobileNetEdge(64, 10, nn.BuildOptions{Weights: true, Seed: 3}),
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
		fp := mustCompile(t, g)
		q, err := CompileQuantized(g, schema)
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
			t.Logf("%s %s batch %d: Run median %.1f us", g.Name, c.name, batch, float64(runs[reps/2].Nanoseconds())/1e3)
			for i, s := range c.p.samples {
				if len(s) != reps {
					t.Errorf("%s %s: step %s timed %d times in %d runs", g.Name, c.name, c.p.names[i], len(s), reps)
				}
			}
			c.p.report(t)
		}
	}
}
