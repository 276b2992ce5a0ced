package inference

// Planned kernel scratch.
//
// GEMM pack buffers, zero-point-shifted input copies and FP32-island
// staging used to come from per-kernel sync.Pools, which hid their
// footprint from the memory plan and re-grew on every first call. Each
// binder now declares its transient needs as a scratchSpec; the engine
// takes the element-wise maximum over all bound steps at compile time
// and the pooled run state (exec.go) carries one allocation, sized for
// the call's batch. A kernel runs its whole range on the calling
// goroutine, so each kind of scratch is one region the step in flight
// owns outright.

// runCtx carries the per-call execution state kernels need: the dynamic
// batch size and the planned scratch allocation for this call.
type runCtx struct {
	batch   int
	spec    scratchSpec
	scratch *scratchBufs
}

// scratchSpec declares one bound kernel's transient buffer needs in
// elements. f32PerSample scales with the call's batch size (whole-input
// staging); the other fields are fixed regions (pack tiles, accumulator
// tiles, the int8 staging rows of a B-tile pack, the direct
// convolutions' padded planes).
type scratchSpec struct {
	f32PerSample int
	f32          int
	i8           int
	u8           int
	i16          int
	i32          int
}

// grow raises s to the element-wise maximum of s and o — the engine's
// fold over its steps.
func (s *scratchSpec) grow(o scratchSpec) {
	s.f32PerSample = max(s.f32PerSample, o.f32PerSample)
	s.f32 = max(s.f32, o.f32)
	s.i8 = max(s.i8, o.i8)
	s.u8 = max(s.u8, o.u8)
	s.i16 = max(s.i16, o.i16)
	s.i32 = max(s.i32, o.i32)
}

// scratchBufs is the scratch regions of one run state.
type scratchBufs struct {
	f32 []float32
	i8  []int8
	u8  []uint8
	i16 []int16
	i32 []int32
}

// ensure grows the regions to the spec's requirement for this call's
// batch. Contents are never assumed zero — kernels fully overwrite what
// they read.
func (b *scratchBufs) ensure(spec scratchSpec, batch int) {
	b.f32 = grow(b.f32, spec.f32PerSample*batch+spec.f32)
	b.i8 = grow(b.i8, spec.i8)
	b.u8 = grow(b.u8, spec.u8)
	b.i16 = grow(b.i16, spec.i16)
	b.i32 = grow(b.i32, spec.i32)
}

// f32Sample returns the batch-scaled float32 region, n elements per
// sample (n must not exceed the bound spec's f32PerSample).
func (rc *runCtx) f32Sample(n int) []float32 {
	return rc.scratch.f32[:n*rc.batch]
}

// f32Scratch returns the fixed float32 region's first n elements.
func (rc *runCtx) f32Scratch(n int) []float32 {
	off := rc.spec.f32PerSample * rc.batch
	return rc.scratch.f32[off : off+n]
}

// i8Scratch returns the int8 region's first n elements.
func (rc *runCtx) i8Scratch(n int) []int8 { return rc.scratch.i8[:n] }

// u8Scratch returns the uint8 region's first n elements.
func (rc *runCtx) u8Scratch(n int) []uint8 { return rc.scratch.u8[:n] }

// i16Scratch returns the int16 region's first n elements.
func (rc *runCtx) i16Scratch(n int) []int16 { return rc.scratch.i16[:n] }

// i32Scratch returns the int32 region's first n elements.
func (rc *runCtx) i32Scratch(n int) []int32 { return rc.scratch.i32[:n] }
