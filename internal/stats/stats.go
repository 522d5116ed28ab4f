// Package stats holds the experiment harness's two small measurement
// helpers: the arithmetic mean and a thread's execution-time breakdown.
package stats

import "fmt"

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Breakdown is one thread's execution-time split over an OS quantum
// (the paper's Figure 6 categories).
type Breakdown struct {
	// NormalCycles is time the pipeline ran and the thread could fetch.
	NormalCycles int64
	// CoolingCycles is time lost to global stop-and-go stalls.
	CoolingCycles int64
	// SedationCycles is time the thread itself was sedated (fetch
	// gated) while the pipeline ran.
	SedationCycles int64
}

// Total returns the quantum length the breakdown covers.
func (b Breakdown) Total() int64 { return b.NormalCycles + b.CoolingCycles + b.SedationCycles }

// Fractions returns the three shares of the total (0 if empty).
func (b Breakdown) Fractions() (normal, cooling, sedation float64) {
	tot := float64(b.Total())
	if tot == 0 {
		return 0, 0, 0
	}
	return float64(b.NormalCycles) / tot, float64(b.CoolingCycles) / tot, float64(b.SedationCycles) / tot
}

// String formats the breakdown as percentages.
func (b Breakdown) String() string {
	n, c, s := b.Fractions()
	return fmt.Sprintf("normal %.1f%% cooling %.1f%% sedation %.1f%%", n*100, c*100, s*100)
}
