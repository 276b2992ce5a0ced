package inference

// Planned kernel scratch.
//
// GEMM pack buffers, zero-point-shifted input copies and FP32-island
// staging used to come from per-kernel sync.Pools, which hid their
// footprint from the memory plan and re-grew on every first call. Each
// binder now declares its transient needs as a scratchSpec; the engine
// takes the element-wise maximum over all bound steps at compile time
// and the pooled run state (exec.go) carries one allocation, sized for
// the call's batch and the compiled worker bound. Per-worker regions
// are disjoint per goroutine ordinal (parallelForWorker), so kernels
// share scratch without synchronization.

// scratchSpec declares one bound kernel's transient buffer needs in
// elements. PerSample fields scale with the call's batch size
// (whole-input staging); PerWorker fields are private to one pool
// worker (pack tiles, accumulator tiles, the int8 staging rows of a
// B-tile pack, the direct convolutions' padded planes) and scale with
// the worker bound.
type scratchSpec struct {
	f32PerSample int
	f32PerWorker int
	i8PerWorker  int
	i16PerWorker int
	i32PerWorker int
}

// grow raises s to the element-wise maximum of s and o — the engine's
// fold over its steps.
func (s *scratchSpec) grow(o scratchSpec) {
	s.f32PerSample = max(s.f32PerSample, o.f32PerSample)
	s.f32PerWorker = max(s.f32PerWorker, o.f32PerWorker)
	s.i8PerWorker = max(s.i8PerWorker, o.i8PerWorker)
	s.i16PerWorker = max(s.i16PerWorker, o.i16PerWorker)
	s.i32PerWorker = max(s.i32PerWorker, o.i32PerWorker)
}

// scratchBufs is the scratch regions of one run state.
type scratchBufs struct {
	f32 []float32
	i8  []int8
	i16 []int16
	i32 []int32
}

// ensure grows the regions to the spec's requirement for this call's
// batch and worker bound. Contents are never assumed zero — kernels
// fully overwrite what they read.
func (b *scratchBufs) ensure(spec scratchSpec, batch, workers int) {
	b.f32 = grow(b.f32, spec.f32PerSample*batch+spec.f32PerWorker*workers)
	b.i8 = grow(b.i8, spec.i8PerWorker*workers)
	b.i16 = grow(b.i16, spec.i16PerWorker*workers)
	b.i32 = grow(b.i32, spec.i32PerWorker*workers)
}

// f32Sample returns the batch-scaled float32 region, n elements per
// sample (n must not exceed the bound spec's f32PerSample).
func (rc *runCtx) f32Sample(n int) []float32 {
	return rc.scratch.f32[:n*rc.batch]
}

// f32Worker returns worker w's private float32 region of n elements.
func (rc *runCtx) f32Worker(w, n int) []float32 {
	off := rc.spec.f32PerSample*rc.batch + w*rc.spec.f32PerWorker
	return rc.scratch.f32[off : off+n]
}

// i8Worker returns worker w's private int8 region of n elements.
func (rc *runCtx) i8Worker(w, n int) []int8 {
	off := w * rc.spec.i8PerWorker
	return rc.scratch.i8[off : off+n]
}

// i16Worker returns worker w's private int16 region of n elements.
func (rc *runCtx) i16Worker(w, n int) []int16 {
	off := w * rc.spec.i16PerWorker
	return rc.scratch.i16[off : off+n]
}

// i32Worker returns worker w's private int32 region of n elements.
func (rc *runCtx) i32Worker(w, n int) []int32 {
	off := w * rc.spec.i32PerWorker
	return rc.scratch.i32[off : off+n]
}
