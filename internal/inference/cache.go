package inference

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vedliot/internal/nn"
)

// PlanCache is the fleet-wide compiled-plan cache: executables keyed by
// an identity string the caller derives from (artifact content digest,
// backend). Deploying N replicas of the same artifact on
// the same backend then lowers and binds the plan once — cold-start for
// every later replica is load + bind instead of calibrate + lower,
// which is what makes artifact-driven fleet deployment scale.
//
// Keys must capture everything that changes the compiled plan: the
// model bytes (the artifact digest), the backend identity (name plus
// precision for accelerator backends) and the activation schema, which
// an artifact's digest covers when the artifact embeds it. The
// cluster registry builds such keys via its deploy path; other callers
// are responsible for their own key discipline — two different models
// under one key is silent corruption, one model under two keys is only
// a missed hit. Compile failures are cached too (compilation is
// deterministic, retrying cannot succeed).
//
// Cached executables are shared: both engines are immutable after
// compile and safe for concurrent Run, which is what makes sharing
// sound. A PlanCache is safe for concurrent use; concurrent misses on
// one key coalesce into a single compile.
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	exe  Executable
	err  error
}

// NewPlanCache creates an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*cacheEntry)}
}

// Compile returns the cached executable for key, compiling g on b on
// the first request. The second return reports a cache hit: true means
// the plan was reused (or another goroutine's in-flight compile was
// joined), false means this call performed the compile.
func (c *PlanCache) Compile(key string, b Backend, g *nn.Graph) (Executable, bool, error) {
	if key == "" {
		return nil, false, fmt.Errorf("inference: empty plan-cache key")
	}
	c.mu.Lock()
	e, hit := c.entries[key]
	if !hit {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.exe, e.err = b.Compile(g) })
	return e.exe, hit, e.err
}

// Stats snapshots the cache's hit/miss counters and entry count.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return PlanCacheStats{Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// PlanCacheStats is a cache telemetry snapshot.
type PlanCacheStats struct {
	// Entries is the number of distinct plans held (including cached
	// failures).
	Entries int
	// Hits counts Compile calls served from the cache; Misses counts
	// calls that performed (or joined the creation of) a new entry.
	Hits, Misses int64
}
