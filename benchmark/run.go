package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// numWindows is how many equal windows the measured time is cut into.
// End-to-end metrics are the median over the windows because this kind
// of shared host stalls for 100-250 ms a few times a minute, and a
// stall should cost one window, not the run.
const numWindows = 6

// hardTimeout fails a request whose reply never comes, so a hung
// server ends the run instead of hanging it.
const hardTimeout = 10 * time.Second

// runConfig is what the command line chooses; everything else about a
// run is fixed by the workload.
type runConfig struct {
	seed int64
	// measured is the total measured time; warm the warm-up before it;
	// setups the number of cold set-ups timed.
	measured, warm time.Duration
	setups         int
	// outDir receives the traced run's span file.
	outDir string
}

// result is one run of one workload in the form the driver reads.
type result struct {
	workload          string
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	lines             []string // the human-readable report
	// incorrect lists why the outputs cannot be trusted, flagged why the
	// measurement deserves a second look; both are empty on a sound run.
	incorrect, flagged []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// checker verifies every reply bitwise against the reference for its
// input row.
type checker struct {
	fx    *fixture
	agree atomic.Int64 // correct replies whose top-1 matches FP32's

	mu      sync.Mutex
	maxDiff float64
}

// call sends input row `in` through infer and classifies the reply.
func (c *checker) call(infer inferFunc, in int, ins tensors) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), hardTimeout)
	defer cancel()
	outs, err := infer(ctx, ins)
	switch {
	case err == nil:
	case isShed(err):
		return replyShed
	default:
		return replyFailed
	}
	if diff, same := compareReply(outs, c.fx.refs[in]); !same {
		c.mu.Lock()
		c.maxDiff = math.Max(c.maxDiff, diff)
		c.mu.Unlock()
		return replyWrong
	}
	if c.fx.top1Agrees[in] {
		c.agree.Add(1)
	}
	return replyOK
}

// mark is the process state at one window boundary.
type mark struct {
	at  time.Duration // actual offset from the start of the run
	cpu time.Duration // process user+sys CPU so far
	ok  int64         // correct replies so far
}

// processCPU is the user+sys CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// takeMarks samples the process at the n+1 boundaries of the measured
// windows. Throughput and CPU per request are computed between the
// actual sample times, so a late wake-up stretches a window instead of
// misattributing work.
func takeMarks(start time.Time, warm, length time.Duration, n int, ok *atomic.Int64) []mark {
	marks := make([]mark, 0, n+1)
	for w := 0; w <= n; w++ {
		time.Sleep(time.Until(start.Add(warm + time.Duration(w)*length)))
		marks = append(marks, mark{at: time.Since(start), cpu: processCPU(), ok: ok.Load()})
	}
	return marks
}

// phase is one driven stretch of load: a warm-up followed by n windows.
type phase struct {
	samples []sample
	marks   []mark
	windows []window
	total   tally // every request of the phase, warm-up included
}

// drive offers the workload's arrival schedule to the entry depth for
// warm + n*length and collects what came back. entry(k) is the function
// request k goes through; prepare, when set, may replace request k's
// input map so a tracer can tell requests apart. closed > 0 replaces the
// schedule by a closed loop with that many requests outstanding.
func (fx *fixture) drive(chk *checker, seed int64, warm, length time.Duration, n, closed int,
	entry func(k int) inferFunc, prepare func(k int, ins tensors) tensors) phase {

	var ok atomic.Int64
	do := func(k int) outcome {
		ins := fx.inputs[k%numInputs]
		if prepare != nil {
			ins = prepare(k, ins)
		}
		return chk.call(entry(k), k%numInputs, ins)
	}

	var due []time.Duration
	if closed == 0 {
		// One stratum per window; the warm-up is cut from a whole
		// number of them.
		strata := int(math.Ceil(float64(warm)/float64(length))) + n
		shift := time.Duration(strata-n)*length - warm
		for _, d := range poissonSchedule(fx.wl.rate, length, strata, seed) {
			if d >= shift {
				due = append(due, d-shift)
			}
		}
	}

	start := time.Now()
	marksCh := make(chan []mark, 1)
	go func() { marksCh <- takeMarks(start, warm, length, n, &ok) }()
	var ph phase
	if closed > 0 {
		ph.samples = closedLoop(start, warm+time.Duration(n)*length, closed, &ok, do)
	} else {
		ph.samples = openLoop(start, due, openLoopCap, &ok, do)
	}
	ph.marks = <-marksCh
	ph.windows = splitWindows(ph.samples, warm, length, fx.wl.limit, n)
	for _, s := range ph.samples {
		ph.total.add(s)
	}
	return ph
}

// perWindow evaluates f on each window with its opening and closing
// marks.
func (ph phase) perWindow(f func(w window, open, close mark) float64) []float64 {
	vals := make([]float64, len(ph.windows))
	for i, w := range ph.windows {
		vals[i] = f(w, ph.marks[i], ph.marks[i+1])
	}
	return vals
}

// runGated is the measured, untraced run: cold set-ups, a warm-up, then
// the six windows the end-to-end metrics come from.
func runGated(wl workload, cfg runConfig) (*result, error) {
	res := &result{workload: wl.name, metrics: map[string]float64{}}
	fx, err := buildFixture(wl, cfg.seed)
	if err != nil {
		return nil, err
	}
	baseline := runtime.NumGoroutine()

	var fl *fleet
	var setups []float64
	for r := 0; r < cfg.setups; r++ {
		if fl != nil {
			fl.close()
		}
		start := time.Now()
		if fl, _, err = fx.deploy(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	chk := &checker{fx: fx}
	length := cfg.measured / numWindows
	ph := fx.drive(chk, cfg.seed, cfg.warm, length, numWindows, 0, fl.bySocket(), nil)
	gap := fl.accountingGap()
	fl.close()
	leaked := goroutinesLeaked(baseline)

	// gated metrics go into the result; the others are printed only.
	report := func(gated bool, name, unit string, vals []float64) {
		q1, q3 := quartiles(vals)
		note := "not gated; "
		if gated {
			res.set(name, median(vals))
			note = ""
		}
		res.linef("%-18s %12.4f %-6s (%swindow iqr %.4f; windows %.4g)", name, median(vals), unit, note, q3-q1, vals)
	}
	latency := func(p float64) []float64 {
		return ph.perWindow(func(w window, _, _ mark) float64 { return percentile(w.latencies, p) })
	}
	res.set("setup_s", median(setups))
	res.linef("%-18s %12.4f %-6s (median of %d cold set-ups)", "setup_s", median(setups), "s", len(setups))
	report(true, "latency_p25_ms", "ms", latency(25))
	report(false, "latency_p50_ms", "ms", latency(50))
	report(false, "latency_p90_ms", "ms", latency(90))
	report(true, "throughput_rps", "req/s", ph.perWindow(func(_ window, open, close mark) float64 {
		return float64(close.ok-open.ok) / (close.at - open.at).Seconds()
	}))
	report(false, "cpu_ms_per_req", "ms", ph.perWindow(func(_ window, open, close mark) float64 {
		return ms(close.cpu-open.cpu) / float64(close.ok-open.ok)
	}))
	report(true, "slo_ok_share", "share", ph.perWindow(func(w window, _, _ mark) float64 {
		return 1 - float64(w.sloMiss)/float64(w.sent)
	}))

	sent, sloMiss := 0, 0
	var lats []float64
	for _, w := range ph.windows {
		sent += w.sent
		sloMiss += w.sloMiss
		lats = append(lats, w.latencies...)
	}
	res.linef("%-18s %12.6f %-6s (%d of %d sent, whole run)", "fail_share",
		float64(ph.total.bad())/float64(ph.total.sent), "share", ph.total.bad(), ph.total.sent)
	res.linef("%-18s %12.6f %-6s (limit %v, measured windows)", "slo_miss_share",
		float64(sloMiss)/float64(sent), "share", wl.limit)
	res.linef("%-18s %12.4f %-6s (%d samples, not gated)", "latency_p99_ms", percentile(lats, 99), "ms", len(lats))
	late, maxLate := lateness(ph.samples)
	res.linef("%-18s %12.4f %-6s (max %.3f ms late)", "late_share", late, "share", maxLate)

	res.attempted, res.failed = ph.total.sent, ph.total.bad()
	res.judge(ph.total, chk, gap, leaked, late)
	return res, nil
}

// lateShareLimit is the share of open-loop requests that may leave more
// than 1 ms late before the row is flagged.
const lateShareLimit = 0.02

// judge applies the checks every run must pass whatever it measured.
func (r *result) judge(t tally, chk *checker, gap int64, leaked int, lateShare float64) {
	if t.wrong > 0 {
		r.incorrect = append(r.incorrect, fmt.Sprintf("%d replies differ from the reference (max abs diff %g)", t.wrong, chk.maxDiff))
	}
	if gap != 0 {
		r.incorrect = append(r.incorrect, fmt.Sprintf("cluster accounting gap %d (submitted - completed - rejected)", gap))
	}
	if leaked != 0 {
		r.incorrect = append(r.incorrect, fmt.Sprintf("%d goroutines leaked", leaked))
	}
	if t.failed+t.shed > 0 {
		r.flagged = append(r.flagged, fmt.Sprintf("%d requests failed and %d were shed: the workload must run clean", t.failed, t.shed))
	}
	if lateShare > lateShareLimit {
		r.flagged = append(r.flagged, fmt.Sprintf("generator sent %.1f%% of requests more than 1 ms late: latencies include that wait", 100*lateShare))
	}
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.incorrect = append(r.incorrect, fmt.Sprintf("%s could not be computed", name))
			r.metrics[name] = -1
		}
	}
	r.correct = len(r.incorrect) == 0
}

// lateness reports how the generator kept its schedule: the share of
// requests that left more than 1 ms after they were due, and the worst
// case in ms.
func lateness(samples []sample) (share, maxMS float64) {
	late := 0
	for _, s := range samples {
		d := s.sent - s.due
		if d > time.Millisecond {
			late++
		}
		maxMS = math.Max(maxMS, ms(d))
	}
	return float64(late) / float64(len(samples)), maxMS
}

// accountingGap is Submitted - Completed - Rejected once the fleet is
// idle; the scheduler's invariant says 0.
func (fl *fleet) accountingGap() int64 {
	st := fl.stats()
	return st.submitted - st.completed - st.rejected
}

// goroutinesLeaked is how many goroutines outlive the fleet's Close.
// Exiting goroutines need a moment to be reaped, so it polls briefly
// before it believes a non-zero count.
func goroutinesLeaked(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
