package accel

import (
	"fmt"
	"math"

	"vedliot/internal/tensor"
)

// The paper explores four DL-accelerator classes (§II-B):
//  1. existing off-the-shelf parts,
//  2. statically configured FPGA accelerators,
//  3. dynamically reconfigurable accelerators, and
//  4. fully simultaneous hardware/software co-design.
// This file models classes 2-4 on top of a parameterizable systolic
// array (a class-2 part is one ArrayConfig's Synthesize), and implements
// the co-design search loop with the "feedback is given to the models"
// step (channel-count suggestions).

// ArrayConfig parameterizes a synthesizable MAC-array accelerator.
type ArrayConfig struct {
	Rows, Cols int     // PE array dimensions
	ClockGHz   float64 // target clock after place and route
	// OnChipKiB is the activation/weight buffer size.
	OnChipKiB int
}

// Valid reports whether the configuration is realizable.
func (c ArrayConfig) Valid() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("accel: array %dx%d", c.Rows, c.Cols)
	}
	if c.ClockGHz <= 0 || c.ClockGHz > 1.5 {
		return fmt.Errorf("accel: clock %.2f GHz outside (0,1.5]", c.ClockGHz)
	}
	if c.OnChipKiB <= 0 {
		return fmt.Errorf("accel: on-chip buffer %d KiB", c.OnChipKiB)
	}
	return nil
}

// PEs returns the processing-element count.
func (c ArrayConfig) PEs() int { return c.Rows * c.Cols }

// Synthesize derives a Device model from an array configuration: peak =
// 2 ops/PE/cycle at INT8 (one MAC), half that at FP16. Power scales with
// PE count and clock; bandwidth with buffer size. Coefficients are
// calibrated so a 32x32 array at 0.3 GHz lands near the ZU3 DPU point.
func (c ArrayConfig) Synthesize(name string) (*Device, error) {
	if err := c.Valid(); err != nil {
		return nil, err
	}
	pes := float64(c.PEs())
	peakINT8 := 2 * pes * c.ClockGHz // GOPS
	// Dynamic power: ~0.35 mW per PE per GHz plus static floor.
	maxW := 0.5 + pes*c.ClockGHz*0.00035*20
	idleW := 0.3 + maxW*0.15
	bw := 2 + float64(c.OnChipKiB)/64
	return &Device{
		Name:  name,
		Class: ClassFPGA,
		PeakGOPS: map[tensor.DType]float64{
			tensor.INT8: peakINT8,
			tensor.FP16: peakINT8 / 2,
		},
		MemBWGBs:   bw,
		IdleW:      idleW,
		MaxW:       maxW,
		SatBatch:   1,
		MaxUtil:    0.65,
		OverheadMS: 0.5,
	}, nil
}

// ReconfigurableAccelerator is class 3: it holds several bitstream
// profiles and can partially reconfigure between them at run time,
// trading a reconfiguration delay for a better power/performance fit —
// the run-time adaptation described in §II-A.
type ReconfigurableAccelerator struct {
	Profiles []ArrayConfig
	// ReconfigMS is the partial-reconfiguration time.
	ReconfigMS float64

	active int
	devs   []*Device
}

// NewReconfigurable builds an accelerator with the given profiles;
// profile 0 starts active.
func NewReconfigurable(profiles []ArrayConfig, reconfigMS float64) (*ReconfigurableAccelerator, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("accel: no profiles")
	}
	r := &ReconfigurableAccelerator{Profiles: profiles, ReconfigMS: reconfigMS}
	for i, p := range profiles {
		dev, err := p.Synthesize(fmt.Sprintf("reconf-p%d-%dx%d", i, p.Rows, p.Cols))
		if err != nil {
			return nil, err
		}
		r.devs = append(r.devs, dev)
	}
	return r, nil
}

// Active returns the currently loaded profile's device model.
func (r *ReconfigurableAccelerator) Active() *Device { return r.devs[r.active] }

// Switch loads profile i, returning the reconfiguration delay incurred
// (zero when already active).
func (r *ReconfigurableAccelerator) Switch(i int) (delayMS float64, err error) {
	if i < 0 || i >= len(r.devs) {
		return 0, fmt.Errorf("accel: profile %d of %d", i, len(r.devs))
	}
	if i == r.active {
		return 0, nil
	}
	r.active = i
	return r.ReconfigMS, nil
}

// BestProfileFor selects the profile that meets a latency deadline at
// minimum power for the workload, returning its index. If none meets
// the deadline the fastest profile is returned.
func (r *ReconfigurableAccelerator) BestProfileFor(w Workload, precision tensor.DType, deadlineMS float64) int {
	best := -1
	bestPower := math.Inf(1)
	fastest := 0
	fastestLat := math.Inf(1)
	for i, d := range r.devs {
		m, err := d.Evaluate(w, precision, 1)
		if err != nil {
			continue
		}
		if m.LatencyMS < fastestLat {
			fastest, fastestLat = i, m.LatencyMS
		}
		if m.LatencyMS <= deadlineMS && m.PowerW < bestPower {
			best, bestPower = i, m.PowerW
		}
	}
	if best < 0 {
		return fastest
	}
	return best
}

// CoDesignConstraints bound the class-4 search.
type CoDesignConstraints struct {
	LatencyMS float64 // deadline per inference
	PowerW    float64 // power envelope
	Precision tensor.DType
}

// CoDesignResult is the outcome of the simultaneous search.
type CoDesignResult struct {
	Config ArrayConfig
	Dev    *Device
	M      Measurement
	// SuggestedChannelMultiple is the model-side feedback: aligning
	// layer channel counts to this multiple keeps the PE array full.
	SuggestedChannelMultiple int
	// Feasible reports whether both constraints were met.
	Feasible bool
}

// CoDesign is class 4: it sweeps array configurations and, for each,
// evaluates the workload, returning the lowest-energy feasible design.
// The search also produces feedback for the model side — the channel
// multiple that maximizes PE utilization — closing the loop the paper
// describes ("feedback is given to the models so that optimizations can
// be tuned for better hardware utilization").
func CoDesign(w Workload, cons CoDesignConstraints) (CoDesignResult, error) {
	if cons.LatencyMS <= 0 || cons.PowerW <= 0 {
		return CoDesignResult{}, fmt.Errorf("accel: constraints must be positive")
	}
	precision := cons.Precision
	var best CoDesignResult
	bestEnergy := math.Inf(1)
	var fallback CoDesignResult
	fallbackLat := math.Inf(1)

	for _, rows := range []int{8, 16, 32, 64, 128} {
		for _, cols := range []int{8, 16, 32, 64, 128} {
			for _, clk := range []float64{0.2, 0.3, 0.5, 0.8} {
				cfg := ArrayConfig{Rows: rows, Cols: cols, ClockGHz: clk, OnChipKiB: 16 * rows}
				dev, err := cfg.Synthesize(fmt.Sprintf("codesign-%dx%d@%.0fMHz", rows, cols, clk*1000))
				if err != nil {
					continue
				}
				if !dev.Supports(precision) {
					continue
				}
				m, err := dev.Evaluate(w, precision, 1)
				if err != nil {
					continue
				}
				res := CoDesignResult{
					Config:                   cfg,
					Dev:                      dev,
					M:                        m,
					SuggestedChannelMultiple: cols,
				}
				if m.LatencyMS < fallbackLat {
					fallback, fallbackLat = res, m.LatencyMS
				}
				if m.LatencyMS <= cons.LatencyMS && m.PowerW <= cons.PowerW {
					energy := m.PowerW * m.LatencyMS
					if energy < bestEnergy {
						res.Feasible = true
						best, bestEnergy = res, energy
					}
				}
			}
		}
	}
	if !best.Feasible {
		return fallback, nil
	}
	return best, nil
}
