package experiment

import (
	"context"
	"strconv"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
)

func TestHeatCoolDurations(t *testing.T) {
	// Synthetic IntReg series: 3 samples heating, 2 above emergency, 3
	// heating, 1 above.
	r := &sim.Result{Emergencies: 2, StopGoCycles: 4_000_000}
	for _, temp := range []float64{350, 353, 356, 359, 359, 352, 354, 357, 359, 350} {
		var smp trace.Sample
		smp.UnitTempK[power.UnitIntReg] = temp
		r.Samples = append(r.Samples, smp)
	}
	heat, cool := heatCoolDurations(r, 358.5, 20_000)
	if len(heat) != 2 {
		t.Fatalf("heat runs = %v", heat)
	}
	// First run: crossings at index 3 from start 0 -> 3 intervals;
	// second: crossing at index 8 from restart index 5 -> 3 intervals.
	if heat[0] != 3*20_000 || heat[1] != 3*20_000 {
		t.Errorf("heat = %v", heat)
	}
	if len(cool) != 2 || cool[0] != 2_000_000 {
		t.Errorf("cool = %v", cool)
	}
	// No samples.
	h, c := heatCoolDurations(&sim.Result{}, 358.5, 20_000)
	if h != nil || c != nil {
		t.Error("no samples should yield nothing")
	}
}

func TestTimingSmoke(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"crafty"}
	tb, err := Timing(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Columns) != 7 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
	// Duty cycle is a number in (0,1].
	duty, err := strconv.ParseFloat(tb.Rows[0][6], 64)
	if err != nil || duty <= 0 || duty > 1 {
		t.Errorf("duty = %q (%v)", tb.Rows[0][6], err)
	}
}

func TestPoliciesSmoke(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"mcf"}
	tb, err := Policies(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Columns) != 6 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
}

func TestAblationFetchPolicySmoke(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"mcf"}
	tb, err := AblationFetchPolicy(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Columns) != 6 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
}
