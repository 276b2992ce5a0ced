package inference

// planArena assigns every unassigned value to an arena slab using
// liveness analysis over the step order. Values flow through three
// location kinds: inputs stay in the caller's tensors, declared outputs
// get fresh per-call tensors (they outlive the call), and everything
// else shares a small set of slots whose per-sample sizes are fixed at
// compile time. A slot is recycled as soon as its last consumer has
// executed, so the arena footprint is the peak working set of the graph
// rather than the sum of all activations — the classic static memory
// plan of deployment runtimes. Sizes are in elements; the caller scales
// by its element width.
func planArena[T float32 | int8](vals []value, steps []step[T]) (slotOff []int, perSample int) {
	// lastUse[v] is the index of the last step consuming value v, or -1.
	lastUse := make([]int, len(vals))
	for i := range lastUse {
		lastUse[i] = -1
	}
	for si, st := range steps {
		for _, v := range st.ins {
			lastUse[v] = si
		}
	}

	type slotState struct {
		size int // per-sample element count, max over assigned values
		free bool
	}
	var slots []slotState

	// acquire picks the free slot wasting the least space for a value of
	// n elements, growing a slot when nothing fits, and creating a new
	// slot only when none is free.
	acquire := func(n int) int {
		bestFit, bestFitSize := -1, -1 // smallest free slot >= n
		largest, largestSize := -1, -1 // largest free slot overall
		for i, s := range slots {
			if !s.free {
				continue
			}
			if s.size >= n && (bestFit == -1 || s.size < bestFitSize) {
				bestFit, bestFitSize = i, s.size
			}
			if largest == -1 || s.size > largestSize {
				largest, largestSize = i, s.size
			}
		}
		idx := bestFit
		if idx == -1 {
			idx = largest // grow the largest free slot
		}
		if idx == -1 {
			slots = append(slots, slotState{size: n})
			return len(slots) - 1
		}
		slots[idx].free = false
		if slots[idx].size < n {
			slots[idx].size = n
		}
		return idx
	}

	for si := range steps {
		st := &steps[si]
		out := &vals[st.out]
		// Assign the destination before releasing dying inputs: kernels
		// are not in-place safe, so a step's output must never alias one
		// of its own inputs.
		if out.loc.kind == locUnassigned {
			out.loc = location{locSlot, acquire(out.elems)}
		}
		for _, in := range st.ins {
			if lastUse[in] == si {
				if l := vals[in].loc; l.kind == locSlot {
					slots[l.idx].free = true
				}
			}
		}
		// A value nothing ever consumes (dead node kept for parity with
		// the interpreter) releases its slot immediately after executing.
		if lastUse[st.out] < si {
			if l := out.loc; l.kind == locSlot {
				slots[l.idx].free = true
			}
		}
	}

	slotOff = make([]int, len(slots))
	for i, s := range slots {
		slotOff[i] = perSample
		perSample += s.size
	}
	return slotOff, perSample
}
