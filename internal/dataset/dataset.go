// Package dataset generates the synthetic datasets that stand in for the
// paper's proprietary sensor data (motor vibration, DC-arc current,
// camera streams). Every generator is seeded and deterministic, and every
// sample carries ground truth, so classifier accuracy, monitor detection
// rates and false-negative rates are all measurable.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one labelled feature vector.
type Sample struct {
	X     []float32
	Label int
}

// Split divides samples into train and test partitions (testFrac of the
// data, at least one sample, goes to test).
func Split(samples []Sample, testFrac float64) (train, test []Sample) {
	n := int(float64(len(samples)) * testFrac)
	if n < 1 {
		n = 1
	}
	if n >= len(samples) {
		n = len(samples) - 1
	}
	return samples[:len(samples)-n], samples[len(samples)-n:]
}

// Blobs generates an n-sample, dim-dimensional Gaussian-blob
// classification problem with the given number of classes. Class
// centroids are placed on a deterministic random sphere; spread controls
// intra-class noise (larger = harder).
func Blobs(n, dim, classes int, spread float64, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	centroids := make([][]float64, classes)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
		var norm float64
		for d := range centroids[c] {
			centroids[c][d] = rng.NormFloat64()
			norm += centroids[c][d] * centroids[c][d]
		}
		norm = math.Sqrt(norm)
		for d := range centroids[c] {
			centroids[c][d] /= norm
		}
	}
	samples := make([]Sample, n)
	for i := range samples {
		c := rng.Intn(classes)
		x := make([]float32, dim)
		for d := 0; d < dim; d++ {
			x[d] = float32(centroids[c][d] + rng.NormFloat64()*spread)
		}
		samples[i] = Sample{X: x, Label: c}
	}
	return samples
}

// MotorState enumerates the motor conditions monitored in the Industrial
// IoT use case (§V-B): operational, thermal and mechanical conditions.
type MotorState int

// Motor conditions, in label order.
const (
	MotorNormal MotorState = iota
	MotorBearingFault
	MotorImbalance
	MotorOverheat
	MotorStatorFault
	NumMotorStates
)

// String names the state.
func (s MotorState) String() string {
	switch s {
	case MotorNormal:
		return "normal"
	case MotorBearingFault:
		return "bearing-fault"
	case MotorImbalance:
		return "imbalance"
	case MotorOverheat:
		return "overheat"
	case MotorStatorFault:
		return "stator-fault"
	}
	return fmt.Sprintf("MotorState(%d)", int(s))
}

// MotorConfig parameterizes vibration-signature generation.
type MotorConfig struct {
	Window     int     // samples per window
	SampleRate float64 // Hz
	RotationHz float64 // shaft speed
	Noise      float64 // sensor noise sigma
	Seed       int64
}

// DefaultMotorConfig matches a 3 kHz accelerometer on a 25 Hz (1500 rpm)
// asynchronous motor.
func DefaultMotorConfig() MotorConfig {
	return MotorConfig{Window: 256, SampleRate: 3000, RotationHz: 25, Noise: 0.1, Seed: 1}
}

// MotorVibration generates n labelled vibration windows covering all
// motor states. The signatures follow standard condition-monitoring
// folklore: bearing faults add periodic high-frequency impulse bursts at
// the fault characteristic frequency, imbalance amplifies the 1x shaft
// harmonic, overheating shows as a low-frequency thermal drift with
// reduced harmonic content, and stator faults add a strong component at
// twice the line frequency.
func MotorVibration(n int, cfg MotorConfig) []Sample {
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples := make([]Sample, n)
	dt := 1 / cfg.SampleRate
	for i := range samples {
		state := MotorState(rng.Intn(int(NumMotorStates)))
		x := make([]float32, cfg.Window)
		phase := rng.Float64() * 2 * math.Pi
		for t := 0; t < cfg.Window; t++ {
			ts := float64(t) * dt
			// Base rotation harmonic plus second harmonic.
			v := 0.5*math.Sin(2*math.Pi*cfg.RotationHz*ts+phase) +
				0.1*math.Sin(4*math.Pi*cfg.RotationHz*ts+phase)
			switch state {
			case MotorBearingFault:
				// BPFO-style impulses at ~3.6x shaft speed with ringing.
				faultHz := 3.6 * cfg.RotationHz
				tf := math.Mod(ts*faultHz, 1)
				if tf < 0.08 {
					v += 1.5 * math.Exp(-tf*40) * math.Sin(2*math.Pi*800*ts)
				}
			case MotorImbalance:
				v += 0.9 * math.Sin(2*math.Pi*cfg.RotationHz*ts+phase)
			case MotorOverheat:
				v = 0.6*v + 0.4*math.Sin(2*math.Pi*0.5*ts+phase) + 0.15*ts
			case MotorStatorFault:
				v += 0.7 * math.Sin(2*math.Pi*100*ts+phase) // 2x line freq
			}
			v += rng.NormFloat64() * cfg.Noise
			x[t] = float32(v)
		}
		samples[i] = Sample{X: x, Label: int(state)}
	}
	return samples
}

// ArcConfig parameterizes DC-arc waveform generation.
type ArcConfig struct {
	Window     int     // samples per window
	SampleRate float64 // Hz
	LoadAmps   float64 // nominal DC current
	Noise      float64
	Seed       int64
}

// DefaultArcConfig models a 100 kHz current sensor on a 20 A DC bus.
func DefaultArcConfig() ArcConfig {
	return ArcConfig{Window: 512, SampleRate: 100e3, LoadAmps: 20, Noise: 0.05, Seed: 1}
}

// ArcSample is one current window with arc ground truth.
type ArcSample struct {
	X []float32
	// Arc reports whether an arc ignites inside the window.
	Arc bool
	// Onset is the sample index of ignition (-1 when Arc is false).
	Onset int
}

// ArcCurrent generates n current windows, around half containing a
// series-arc ignition. Arc signatures follow the DC-arc literature: a
// step drop in mean current, broadband noise, and chaotic low-frequency
// flutter after ignition.
func ArcCurrent(n int, cfg ArcConfig) []ArcSample {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]ArcSample, n)
	for i := range out {
		arc := rng.Intn(2) == 1
		onset := -1
		if arc {
			onset = cfg.Window/8 + rng.Intn(cfg.Window/2)
		}
		x := make([]float32, cfg.Window)
		flutter := 0.0
		for t := 0; t < cfg.Window; t++ {
			v := cfg.LoadAmps + rng.NormFloat64()*cfg.Noise*cfg.LoadAmps/10
			// Switching ripple.
			v += 0.05 * cfg.LoadAmps * math.Sin(2*math.Pi*20e3*float64(t)/cfg.SampleRate)
			if arc && t >= onset {
				// Arc voltage drop reduces current; broadband noise and
				// 1/f flutter appear.
				flutter = 0.95*flutter + rng.NormFloat64()*0.05
				v -= 0.12 * cfg.LoadAmps
				v += cfg.LoadAmps * (0.08*rng.NormFloat64() + 0.1*flutter)
			}
			x[t] = float32(v)
		}
		out[i] = ArcSample{X: x, Arc: arc, Onset: onset}
	}
	return out
}

// Normalize scales each feature vector in place to zero mean and unit
// variance (per sample), the pre-processing step of the deployment
// pipeline.
func Normalize(samples []Sample) {
	for _, s := range samples {
		var mean float64
		for _, v := range s.X {
			mean += float64(v)
		}
		mean /= float64(len(s.X))
		var variance float64
		for _, v := range s.X {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(len(s.X))
		std := math.Sqrt(variance)
		if std == 0 {
			std = 1
		}
		for i, v := range s.X {
			s.X[i] = float32((float64(v) - mean) / std)
		}
	}
}
