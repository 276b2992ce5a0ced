package inference

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// countingBackend wraps a backend and counts real compiles.
type countingBackend struct {
	inner    Backend
	compiles atomic.Int64
}

func (b *countingBackend) Name() string { return b.inner.Name() }

func (b *countingBackend) Compile(g *nn.Graph) (Executable, error) {
	b.compiles.Add(1)
	return b.inner.Compile(g)
}

func TestPlanCacheHitSharesOnePlan(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	c := NewPlanCache()
	b := &countingBackend{inner: CPUBackend{}}

	exe1, hit1, err := c.Compile("k1", b, g)
	if err != nil {
		t.Fatal(err)
	}
	exe2, hit2, err := c.Compile("k1", b, g)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Fatalf("hit flags = %v/%v, want false/true", hit1, hit2)
	}
	if exe1 != exe2 {
		t.Fatal("cache returned distinct executables for one key")
	}
	if n := b.compiles.Load(); n != 1 {
		t.Fatalf("backend compiled %d times, want 1", n)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}

	// A different key compiles independently.
	if _, hit, err := c.Compile("k2", b, g); err != nil || hit {
		t.Fatalf("second key: hit=%v err=%v, want fresh compile", hit, err)
	}
	if n := b.compiles.Load(); n != 2 {
		t.Fatalf("backend compiled %d times after second key, want 2", n)
	}
}

// TestPlanCacheHitParity pins the cache-hit contract: the plan served
// from the cache produces bitwise the outputs of a freshly lowered
// plan of the same graph.
func TestPlanCacheHitParity(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	c := NewPlanCache()
	if _, _, err := c.Compile("k", CPUBackend{}, g); err != nil {
		t.Fatal(err)
	}
	cached, hit, err := c.Compile("k", CPUBackend{}, g)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v, want cache hit", hit, err)
	}
	fresh, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in, err := nn.SyntheticInput(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if d, _ := tensor.MaxAbsDiff(w, got[name]); d != 0 {
			t.Fatalf("cached plan output %q differs from fresh plan by %g", name, d)
		}
	}
}

func TestPlanCacheConcurrentMissesCoalesce(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	c := NewPlanCache()
	b := &countingBackend{inner: CPUBackend{}}
	var wg sync.WaitGroup
	exes := make([]Executable, 16)
	for i := range exes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			exe, _, err := c.Compile("k", b, g)
			if err != nil {
				t.Error(err)
				return
			}
			exes[i] = exe
		}(i)
	}
	wg.Wait()
	if n := b.compiles.Load(); n != 1 {
		t.Fatalf("concurrent misses compiled %d times, want 1", n)
	}
	for i := 1; i < len(exes); i++ {
		if exes[i] != exes[0] {
			t.Fatal("concurrent callers received distinct executables")
		}
	}
}

type failingBackend struct{ compiles atomic.Int64 }

func (b *failingBackend) Name() string { return "failing" }

func (b *failingBackend) Compile(*nn.Graph) (Executable, error) {
	b.compiles.Add(1)
	return nil, errors.New("boom")
}

func TestPlanCacheCachesFailures(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	c := NewPlanCache()
	b := &failingBackend{}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Compile("k", b, g); err == nil {
			t.Fatal("cache swallowed the compile error")
		}
	}
	if n := b.compiles.Load(); n != 1 {
		t.Fatalf("failing compile ran %d times, want 1 (deterministic failure is cached)", n)
	}
}

func TestPlanCacheRejectsEmptyKey(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	if _, _, err := NewPlanCache().Compile("", CPUBackend{}, g); err == nil {
		t.Fatal("empty key accepted")
	}
}
