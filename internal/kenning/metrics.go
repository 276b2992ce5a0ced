package kenning

import (
	"fmt"
	"sort"
	"strings"
)

// ConfusionMatrix accumulates classification outcomes; rows are truth,
// columns are predictions — the report Kenning generates for
// classification models.
type ConfusionMatrix struct {
	n     int
	cells []int64
	total int64
}

// NewConfusionMatrix creates an n-class matrix.
func NewConfusionMatrix(n int) *ConfusionMatrix {
	return &ConfusionMatrix{n: n, cells: make([]int64, n*n)}
}

// Add records one (truth, prediction) pair.
func (m *ConfusionMatrix) Add(truth, pred int) error {
	if truth < 0 || truth >= m.n || pred < 0 || pred >= m.n {
		return fmt.Errorf("kenning: label (%d, %d) outside %d classes", truth, pred, m.n)
	}
	m.cells[truth*m.n+pred]++
	m.total++
	return nil
}

// At returns the count for (truth, pred).
func (m *ConfusionMatrix) At(truth, pred int) int64 { return m.cells[truth*m.n+pred] }

// Total returns the number of recorded samples.
func (m *ConfusionMatrix) Total() int64 { return m.total }

// Accuracy returns the trace fraction.
func (m *ConfusionMatrix) Accuracy() float64 {
	if m.total == 0 {
		return 0
	}
	var correct int64
	for i := 0; i < m.n; i++ {
		correct += m.At(i, i)
	}
	return float64(correct) / float64(m.total)
}

// Precision returns TP / (TP+FP) for a class (1 when the class is never
// predicted).
func (m *ConfusionMatrix) Precision(class int) float64 {
	var predicted int64
	for t := 0; t < m.n; t++ {
		predicted += m.At(t, class)
	}
	if predicted == 0 {
		return 1
	}
	return float64(m.At(class, class)) / float64(predicted)
}

// Recall returns TP / (TP+FN) for a class (1 when the class never
// occurs).
func (m *ConfusionMatrix) Recall(class int) float64 {
	var actual int64
	for p := 0; p < m.n; p++ {
		actual += m.At(class, p)
	}
	if actual == 0 {
		return 1
	}
	return float64(m.At(class, class)) / float64(actual)
}

// String renders the matrix with per-class precision/recall.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "T\\P")
	for p := 0; p < m.n; p++ {
		fmt.Fprintf(&b, "%8d", p)
	}
	fmt.Fprintf(&b, "%10s\n", "recall")
	for t := 0; t < m.n; t++ {
		fmt.Fprintf(&b, "%8d", t)
		for p := 0; p < m.n; p++ {
			fmt.Fprintf(&b, "%8d", m.At(t, p))
		}
		fmt.Fprintf(&b, "%10.3f\n", m.Recall(t))
	}
	fmt.Fprintf(&b, "%8s", "prec")
	for p := 0; p < m.n; p++ {
		fmt.Fprintf(&b, "%8.3f", m.Precision(p))
	}
	fmt.Fprintf(&b, "\naccuracy %.3f over %d samples\n", m.Accuracy(), m.total)
	return b.String()
}

// PRPoint is one operating point of a detector.
type PRPoint struct {
	Threshold         float64
	Precision, Recall float64
}

// PRCurve computes the precision/recall curve for a binary detector
// from per-sample scores and ground truth — the report Kenning
// generates for detection algorithms. Points are ordered by descending
// threshold.
func PRCurve(scores []float64, truth []bool) ([]PRPoint, error) {
	if len(scores) != len(truth) {
		return nil, fmt.Errorf("kenning: %d scores for %d labels", len(scores), len(truth))
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("kenning: empty detector output")
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	var totalPos int
	for _, t := range truth {
		if t {
			totalPos++
		}
	}
	var curve []PRPoint
	tp, fp := 0, 0
	for _, i := range idx {
		if truth[i] {
			tp++
		} else {
			fp++
		}
		prec := float64(tp) / float64(tp+fp)
		rec := 1.0
		if totalPos > 0 {
			rec = float64(tp) / float64(totalPos)
		}
		curve = append(curve, PRPoint{Threshold: scores[i], Precision: prec, Recall: rec})
	}
	return curve, nil
}

// AveragePrecision integrates the PR curve (step interpolation).
func AveragePrecision(curve []PRPoint) float64 {
	var ap, prevRecall float64
	for _, p := range curve {
		ap += p.Precision * (p.Recall - prevRecall)
		prevRecall = p.Recall
	}
	return ap
}
