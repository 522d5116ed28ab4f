package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{NormalCycles: 50, CoolingCycles: 30, SedationCycles: 20}
	if b.Total() != 100 {
		t.Error("total")
	}
	n, c, s := b.Fractions()
	if n != 0.5 || c != 0.3 || s != 0.2 {
		t.Errorf("fractions = %v %v %v", n, c, s)
	}
	if !strings.Contains(b.String(), "cooling 30.0%") {
		t.Errorf("string = %q", b.String())
	}
	var zero Breakdown
	n, c, s = zero.Fractions()
	if n != 0 || c != 0 || s != 0 {
		t.Error("zero breakdown fractions")
	}
}

// TestQuickBreakdownFractionsSumToOne property: the three fractions
// always sum to 1 for non-empty breakdowns.
func TestQuickBreakdownFractionsSumToOne(t *testing.T) {
	f := func(a, b, c uint16) bool {
		br := Breakdown{int64(a), int64(b), int64(c)}
		if br.Total() == 0 {
			return true
		}
		n, co, s := br.Fractions()
		return math.Abs(n+co+s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
