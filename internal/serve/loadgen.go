package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/tensor"
)

// Transport is anything the load generator can drive: a framed Client,
// a connection Pool, or an in-process *cluster.Scheduler, the baseline
// that isolates network and framing overhead in comparisons.
type Transport interface {
	// InferCtx routes one request and blocks for its result.
	InferCtx(ctx context.Context, model string, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
}

// LoadConfig shapes a closed-loop load run. A closed-loop client honors
// a retry-after hint by waiting it out and retrying, up to maxRetries
// times a request.
type LoadConfig struct {
	// Model names the target deployment.
	Model string
	// Clients is the concurrent simulated-client population.
	Clients int
	// RequestsPerClient is each client's request budget.
	RequestsPerClient int
	// Think is the mean think time between a client's response and its
	// next request (exponential, seeded). Zero means no think time.
	Think time.Duration
	// SLO is the per-request latency objective; slower responses and
	// all sheds count as violations. Zero disables the latency check.
	SLO time.Duration
	// Inputs supplies the request tensors for client i. Required.
	Inputs func(i int) map[string]*tensor.Tensor
	// Seed drives think-time draws.
	Seed int64
}

// LoadResult is the outcome of one load run.
type LoadResult struct {
	// Requests counts completed request attempts (excluding retried
	// sheds).
	Requests int
	// Completed counts successful responses.
	Completed int
	// Shed counts requests that ended shed (after retries, if any).
	Shed int
	// Failed counts hard failures — anything but success or shed.
	Failed int
	// Retries counts shed responses that were retried.
	Retries int
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// Throughput is Completed per second of Elapsed.
	Throughput float64
	// Latency summarizes successful responses.
	Latency cluster.LatencySummary
	// SLOViolations counts slow successes plus terminal sheds and
	// failures.
	SLOViolations int
	// SLOViolationRate is SLOViolations / Requests.
	SLOViolationRate float64
}

// tally is a LoadResult being counted, with the latencies its summary
// is taken from: one per closed-loop client, or one shared under a lock
// by an open-loop replay.
type tally struct {
	res  LoadResult
	lats []time.Duration
}

// record classifies one finished request: a success (a slow one
// violates the SLO), a terminal shed or a hard failure.
func (ta *tally) record(err error, lat, slo time.Duration) {
	var ra *RetryAfterError
	switch {
	case err == nil:
		ta.res.Completed++
		ta.lats = append(ta.lats, lat)
		if slo > 0 && lat > slo {
			ta.res.SLOViolations++
		}
	case errors.As(err, &ra) || errors.Is(err, cluster.ErrOverloaded):
		ta.res.Shed++
		ta.res.SLOViolations++
	default:
		ta.res.Failed++
		ta.res.SLOViolations++
	}
}

// result summarizes the tally of a run of this many requests.
func (ta *tally) result(requests int, elapsed time.Duration) LoadResult {
	res := ta.res
	res.Requests, res.Elapsed, res.Latency = requests, elapsed, cluster.Summarize(ta.lats)
	if elapsed > 0 {
		res.Throughput = float64(res.Completed) / elapsed.Seconds()
	}
	if requests > 0 {
		res.SLOViolationRate = float64(res.SLOViolations) / float64(requests)
	}
	return res
}

// maxRetries bounds the retries of one closed-loop request.
const maxRetries = 3

// RunClosedLoop drives a closed-loop client population over the
// transport: each client waits for its response (or terminal shed),
// thinks, then issues its next request. Real goroutines, real sockets
// when the transport is a Client/Pool — wall-clock results, not virtual
// time.
func RunClosedLoop(tr Transport, cfg LoadConfig) (LoadResult, error) {
	if tr == nil {
		return LoadResult{}, errors.New("serve: load: nil transport")
	}
	if cfg.Clients <= 0 || cfg.RequestsPerClient <= 0 {
		return LoadResult{}, errors.New("serve: load: need clients and requests per client")
	}
	if cfg.Inputs == nil {
		return LoadResult{}, errors.New("serve: load: need an input generator")
	}
	tallies := make([]tally, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			ins := cfg.Inputs(i)
			ta := &tallies[i]
			// Stagger start over one think interval to avoid a
			// synchronized spike.
			if cfg.Think > 0 {
				time.Sleep(time.Duration(rng.Float64() * float64(cfg.Think)))
			}
			for r := 0; r < cfg.RequestsPerClient; r++ {
				t0 := time.Now()
				var err error
				for attempt := 0; ; attempt++ {
					_, err = tr.InferCtx(context.Background(), cfg.Model, ins)
					var ra *RetryAfterError
					if errors.As(err, &ra) && attempt < maxRetries {
						ta.res.Retries++
						time.Sleep(ra.After)
						continue
					}
					break
				}
				ta.record(err, time.Since(t0), cfg.SLO)
				if cfg.Think > 0 {
					time.Sleep(time.Duration(rng.ExpFloat64() * float64(cfg.Think)))
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total tally
	for i := range tallies {
		ta := &tallies[i]
		total.res.Completed += ta.res.Completed
		total.res.Shed += ta.res.Shed
		total.res.Failed += ta.res.Failed
		total.res.Retries += ta.res.Retries
		total.res.SLOViolations += ta.res.SLOViolations
		total.lats = append(total.lats, ta.lats...)
	}
	return total.result(cfg.Clients*cfg.RequestsPerClient, elapsed), nil
}

// ReplayOpenLoop fires the trace's arrivals at the transport without
// waiting for completions — the bursty, non-self-throttling regime that
// exercises shedding.
func ReplayOpenLoop(tr Transport, trace cluster.Trace, cfg LoadConfig) (LoadResult, error) {
	if tr == nil {
		return LoadResult{}, errors.New("serve: load: nil transport")
	}
	if cfg.Inputs == nil {
		return LoadResult{}, errors.New("serve: load: need an input generator")
	}
	if len(trace.Arrivals) == 0 {
		return LoadResult{}, errors.New("serve: load: empty trace")
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		ta tally
	)
	start := time.Now()
	for i, at := range trace.Arrivals {
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			_, err := tr.InferCtx(context.Background(), cfg.Model, cfg.Inputs(i))
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			ta.record(err, lat, cfg.SLO)
		}(i)
	}
	wg.Wait()
	return ta.result(len(trace.Arrivals), time.Since(start)), nil
}
