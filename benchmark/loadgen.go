package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome classifies one request. The generator never retries.
type outcome uint8

const (
	replyOK outcome = iota
	replyFailed
	replyShed
	replyWrong
)

// sample is one request's timing, as offsets from the start of the run.
type sample struct {
	k int // request number within its run
	// due is when the schedule wanted the request sent (closed loop:
	// when it was sent), sent when it actually left, done when its
	// reply arrived.
	due, sent, done time.Duration
	out             outcome
}

// latency is measured from the due time, so a stall that delays the
// send still counts against the request.
func (s sample) latency() time.Duration { return s.done - s.due }

// poissonSchedule returns the due times of an open-loop run of `strata`
// consecutive intervals of length `stratum` at `rate` requests per
// second. Arrivals are a Poisson process conditioned on its count: each
// stratum holds exactly round(rate*stratum) arrivals at independent
// uniform times, so gaps within a stratum are as bursty as Poisson
// traffic while the offered load is the same for every seed.
func poissonSchedule(rate float64, stratum time.Duration, strata int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	per := int(math.Round(rate * stratum.Seconds()))
	due := make([]time.Duration, 0, per*strata)
	for s := 0; s < strata; s++ {
		base := time.Duration(s) * stratum
		for i := 0; i < per; i++ {
			due = append(due, base+time.Duration(rng.Float64()*float64(stratum)))
		}
		sort.Slice(due[s*per:], func(i, j int) bool { return due[s*per+i] < due[s*per+j] })
	}
	return due
}

// fire performs request k, due at offset due, and times it.
func fire(start time.Time, k int, due time.Duration, ok *atomic.Int64, do func(k int) outcome) sample {
	s := sample{k: k, due: due, sent: time.Since(start)}
	s.out = do(k)
	s.done = time.Since(start)
	if s.out == replyOK {
		ok.Add(1)
	}
	return s
}

// waitUntil blocks the calling OS thread until t. time.Sleep would not
// do: an idle Go runtime parks in epoll_wait, whose timeout counts whole
// milliseconds, so the fifth of a 200 req/s Poisson schedule whose gaps
// are shorter than that would leave up to a millisecond late. nanosleep
// on a locked thread wakes within ~0.15 ms and costs no spinning.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early or interrupted wake-up loops
	}
}

// paceQuantum is the least time between two wake-ups of the pacer. A
// schedule whose arrivals come closer than that (mlp_flood's are 200 us
// apart on average) leaves in small bursts, each request at most this
// late, instead of keeping the pacer's thread in the kernel.
const paceQuantum = 200 * time.Microsecond

// openLoop sends request k at start+due[k] whether or not earlier
// replies have arrived, with at most inflight outstanding: if the cap
// is reached the pacer blocks and later requests leave late, which
// their due-based latency still counts. do performs request k and
// reports its outcome; ok counts correct replies as they arrive.
func openLoop(start time.Time, due []time.Duration, inflight int, ok *atomic.Int64, do func(k int) outcome) []sample {
	runtime.LockOSThread() // waitUntil sleeps the thread, not the goroutine
	defer runtime.UnlockOSThread()
	samples := make([]sample, len(due))
	slots := make(chan struct{}, inflight) // counting semaphore
	var wg sync.WaitGroup
	wake := -paceQuantum
	for k := 0; k < len(due); {
		wake = max(due[k], wake+paceQuantum)
		waitUntil(start.Add(wake))
		// Everything that has come due by now leaves in this wake-up.
		for now := time.Since(start); k < len(due) && due[k] <= now; k++ {
			slots <- struct{}{}
			wg.Add(1)
			go func(k int, d time.Duration) {
				defer wg.Done()
				samples[k] = fire(start, k, d, ok, do)
				<-slots
			}(k, due[k])
		}
	}
	wg.Wait()
	return samples
}

// closedLoop keeps inflight requests outstanding for dur: each worker
// sends its next request the moment the previous reply arrives. Worker
// w's i-th request is number w + i*inflight, so a worker keeps its
// connection and input row.
func closedLoop(start time.Time, dur time.Duration, inflight int, ok *atomic.Int64, do func(k int) outcome) []sample {
	perWorker := make([][]sample, inflight)
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; ; k += inflight {
				due := time.Since(start)
				if due >= dur {
					return
				}
				perWorker[w] = append(perWorker[w], fire(start, k, due, ok, do))
			}
		}(w)
	}
	wg.Wait()
	var samples []sample
	for _, ws := range perWorker {
		samples = append(samples, ws...)
	}
	return samples
}

// tally counts outcomes; sent == ok+failed+shed+wrong by construction.
type tally struct{ sent, ok, failed, shed, wrong int }

func (t *tally) add(s sample) {
	t.sent++
	switch s.out {
	case replyOK:
		t.ok++
	case replyFailed:
		t.failed++
	case replyShed:
		t.shed++
	case replyWrong:
		t.wrong++
	}
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	t.shed += o.shed
	t.wrong += o.wrong
}

// bad is every request that did not get a correct reply.
func (t tally) bad() int { return t.failed + t.shed + t.wrong }

// window is the requests due in one measurement window.
type window struct {
	tally
	latencies []float64 // ms, correct replies only
	sloMiss   int       // failed, shed, wrong or over the limit
}

// splitWindows assigns each sample to the window its due time falls
// in: window w covers [warm + w*length, warm + (w+1)*length). Samples
// due during warm-up or after the last window are dropped.
func splitWindows(samples []sample, warm, length, limit time.Duration, n int) []window {
	ws := make([]window, n)
	for _, s := range samples {
		if s.due < warm {
			continue
		}
		w := int((s.due - warm) / length)
		if w >= n {
			continue
		}
		ws[w].add(s)
		if s.out == replyOK {
			ws[w].latencies = append(ws[w].latencies, ms(s.latency()))
		}
		if s.out != replyOK || s.latency() > limit {
			ws[w].sloMiss++
		}
	}
	return ws
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between order statistics; vals need not be sorted.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method),
// so -repeat judges spread the way the benchmark's driver does.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}
