//go:build race

package inference

// raceEnabled reports a -race build: sync.Pool then drops a share of
// its Puts on purpose and the detector allocates, so the tests that
// count allocations or watch one pooled state come back skip that part.
const raceEnabled = true
