package dataset

import (
	"math"
	"testing"
)

func TestBlobsDeterministicAndLabeled(t *testing.T) {
	a := Blobs(100, 8, 3, 0.2, 42)
	b := Blobs(100, 8, 3, 0.2, 42)
	if len(a) != 100 {
		t.Fatalf("got %d samples", len(a))
	}
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatal("labels differ across same-seed runs")
		}
		for d := range a[i].X {
			if a[i].X[d] != b[i].X[d] {
				t.Fatal("features differ across same-seed runs")
			}
		}
		if a[i].Label < 0 || a[i].Label >= 3 {
			t.Fatalf("label %d out of range", a[i].Label)
		}
		if len(a[i].X) != 8 {
			t.Fatalf("dim %d", len(a[i].X))
		}
	}
}

func TestBlobsSeparable(t *testing.T) {
	// With tiny spread, nearest-centroid classification must be nearly
	// perfect — verifies the blobs actually cluster by label.
	samples := Blobs(300, 16, 4, 0.05, 7)
	centroids := make([][]float64, 4)
	counts := make([]int, 4)
	for i := range centroids {
		centroids[i] = make([]float64, 16)
	}
	for _, s := range samples {
		for d, v := range s.X {
			centroids[s.Label][d] += float64(v)
		}
		counts[s.Label]++
	}
	for c := range centroids {
		for d := range centroids[c] {
			centroids[c][d] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range samples {
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			var dist float64
			for d, v := range s.X {
				diff := float64(v) - centroids[c][d]
				dist += diff * diff
			}
			if dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == s.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(samples)); acc < 0.95 {
		t.Errorf("nearest-centroid accuracy %.2f < 0.95: blobs not separable", acc)
	}
}

func TestSplit(t *testing.T) {
	s := Blobs(100, 2, 2, 0.1, 1)
	train, test := Split(s, 0.2)
	if len(train) != 80 || len(test) != 20 {
		t.Errorf("split = %d/%d", len(train), len(test))
	}
	// Degenerate fractions stay sane.
	tr, te := Split(s, 0)
	if len(te) < 1 || len(tr)+len(te) != 100 {
		t.Errorf("zero-frac split = %d/%d", len(tr), len(te))
	}
	tr2, te2 := Split(s, 1)
	if len(tr2) < 1 || len(te2) != 99 {
		t.Errorf("full-frac split = %d/%d", len(tr2), len(te2))
	}
}

func TestMotorVibrationStates(t *testing.T) {
	cfg := DefaultMotorConfig()
	samples := MotorVibration(200, cfg)
	seen := make(map[int]int)
	for _, s := range samples {
		if len(s.X) != cfg.Window {
			t.Fatalf("window %d", len(s.X))
		}
		seen[s.Label]++
	}
	for st := 0; st < int(NumMotorStates); st++ {
		if seen[st] == 0 {
			t.Errorf("state %s never generated", MotorState(st))
		}
	}
}

func TestMotorSignaturesDiffer(t *testing.T) {
	// Bearing-fault windows must carry more high-frequency energy than
	// normal windows; imbalance more total energy.
	cfg := DefaultMotorConfig()
	cfg.Noise = 0.01
	samples := MotorVibration(400, cfg)
	var hfNormal, hfFault, nNormal, nFault float64
	for _, s := range samples {
		var hf float64
		for i := 1; i < len(s.X); i++ {
			d := float64(s.X[i] - s.X[i-1])
			hf += d * d
		}
		switch MotorState(s.Label) {
		case MotorNormal:
			hfNormal += hf
			nNormal++
		case MotorBearingFault:
			hfFault += hf
			nFault++
		}
	}
	if nNormal == 0 || nFault == 0 {
		t.Skip("insufficient class coverage")
	}
	if hfFault/nFault <= hfNormal/nNormal {
		t.Error("bearing-fault windows lack high-frequency signature")
	}
}

func TestMotorStateString(t *testing.T) {
	for st := MotorState(0); st < NumMotorStates; st++ {
		if st.String() == "" || st.String()[0] == 'M' {
			t.Errorf("state %d has bad name %q", int(st), st.String())
		}
	}
}

func TestArcCurrent(t *testing.T) {
	cfg := DefaultArcConfig()
	arcs := ArcCurrent(100, cfg)
	nArc := 0
	for _, a := range arcs {
		if len(a.X) != cfg.Window {
			t.Fatalf("window %d", len(a.X))
		}
		if a.Arc {
			nArc++
			if a.Onset < 0 || a.Onset >= cfg.Window {
				t.Errorf("bad onset %d", a.Onset)
			}
		} else if a.Onset != -1 {
			t.Errorf("non-arc sample has onset %d", a.Onset)
		}
	}
	if nArc < 20 || nArc > 80 {
		t.Errorf("arc fraction %d/100 implausible", nArc)
	}
}

func TestArcSignatureVisible(t *testing.T) {
	// Post-onset variance must exceed pre-onset variance.
	cfg := DefaultArcConfig()
	arcs := ArcCurrent(50, cfg)
	for _, a := range arcs {
		if !a.Arc || a.Onset < 64 || a.Onset > cfg.Window-64 {
			continue
		}
		pre := variance(a.X[:a.Onset])
		post := variance(a.X[a.Onset:])
		if post <= pre {
			t.Errorf("arc window: post-onset variance %.3f <= pre %.3f", post, pre)
		}
	}
}

func variance(xs []float32) float64 {
	var mean float64
	for _, v := range xs {
		mean += float64(v)
	}
	mean /= float64(len(xs))
	var s float64
	for _, v := range xs {
		d := float64(v) - mean
		s += d * d
	}
	return s / float64(len(xs))
}

func TestNormalize(t *testing.T) {
	s := []Sample{{X: []float32{1, 2, 3, 4}}}
	Normalize(s)
	var mean, variance float64
	for _, v := range s[0].X {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range s[0].X {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-6 || math.Abs(variance-1) > 1e-5 {
		t.Errorf("mean %v variance %v after normalize", mean, variance)
	}
	// Constant vector must not produce NaN.
	c := []Sample{{X: []float32{5, 5}}}
	Normalize(c)
	if math.IsNaN(float64(c[0].X[0])) {
		t.Error("NaN on constant input")
	}
}

func TestCleanSeriesAndInjectErrors(t *testing.T) {
	ts := CleanSeries(SeriesConfig{N: 2000, Period: 50, Noise: 0.05, Seed: 3})
	if len(ts.Values) != 2000 {
		t.Fatalf("n = %d", len(ts.Values))
	}
	for _, f := range ts.Faulty {
		if f != ErrNone {
			t.Fatal("clean series has faults")
		}
	}
	bad := InjectErrors(ts, InjectConfig{Rate: 0.01, Seed: 4})
	kinds := map[ErrorKind]int{}
	for _, f := range bad.Faulty {
		kinds[f]++
	}
	for k := ErrOutlier; k < NumErrorKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("error kind %s never injected", k)
		}
	}
	// The original must be untouched.
	for _, f := range ts.Faulty {
		if f != ErrNone {
			t.Fatal("InjectErrors mutated input")
		}
	}
}

func TestErrorKindString(t *testing.T) {
	for k := ErrorKind(0); k < NumErrorKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}

func TestSceneImage(t *testing.T) {
	clean := SceneImage(32, 32, 0, 1)
	noisy := SceneImage(32, 32, 0.2, 1)
	if len(clean.Pix) != 32*32 || !clean.Smooth || noisy.Smooth {
		t.Fatal("bad image metadata")
	}
	// Noisy image must have higher local variation.
	tv := func(img Image) float64 {
		var s float64
		for y := 0; y < img.H; y++ {
			for x := 1; x < img.W; x++ {
				d := float64(img.Pix[y*img.W+x] - img.Pix[y*img.W+x-1])
				s += d * d
			}
		}
		return s
	}
	if tv(noisy) <= tv(clean) {
		t.Error("noise injection did not raise total variation")
	}
}
