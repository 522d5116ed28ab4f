package experiment

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
)

// tinyOptions keeps experiment smoke tests fast: two benchmarks, short
// quanta.
func tinyOptions() Options {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 300_000
	return Options{
		Config:     &cfg,
		Benchmarks: []string{"crafty", "mcf"},
		Warmup:     100_000,
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "T",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
		Notes:   []string{"n"},
	}
	out := tb.String()
	for _, want := range []string{"T\n", "a", "bb", "xxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	tb, err := Table1(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 15 {
		t.Errorf("only %d parameter rows", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "6, out-of-order") {
		t.Error("issue width missing")
	}
}

func TestFigure3Smoke(t *testing.T) {
	tb, err := Figure3(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks + 3 variants.
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	rates := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad rate %q", row[1])
		}
		rates[row[0]] = v
	}
	if rates["crafty"] <= rates["mcf"] {
		t.Error("crafty should out-access mcf at the register file")
	}
	for name, r := range rates {
		if r < 0 || r > 20 {
			t.Errorf("%s rate %f implausible", name, r)
		}
	}
}

func TestFigure4Smoke(t *testing.T) {
	tb, err := Figure4(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 || len(tb.Columns) != 4 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if _, err := strconv.Atoi(cell); err != nil {
				t.Errorf("non-integer emergency count %q", cell)
			}
		}
	}
}

func TestFigure5Smoke(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"crafty"}
	tb, err := Figure5(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Columns) != 12 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
	if len(tb.Notes) == 0 {
		t.Error("figure 5 should carry the degradation note")
	}
}

func TestFigure6Smoke(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"mcf"}
	tb, err := Figure6(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, cell := range tb.Rows[0][1:] {
		if !strings.HasSuffix(cell, "%") {
			t.Errorf("breakdown cell %q not a percentage", cell)
		}
	}
}

func TestThresholdsSmoke(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"crafty"}
	tb, err := Thresholds(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Columns) != 7 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
}

func TestSpecPairsSmoke(t *testing.T) {
	tb, err := SpecPairs(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	o := tinyOptions()
	o.Benchmarks = []string{"crafty"}
	if _, err := SpecPairs(context.Background(), o); err == nil {
		t.Error("single benchmark should fail")
	}
}

func TestAblationMultiCulpritSmoke(t *testing.T) {
	o := tinyOptions()
	tb, err := AblationMultiCulprit(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d (want 4 threads)", len(tb.Rows))
	}
}

func TestRunDispatch(t *testing.T) {
	if len(Names()) != 17 {
		t.Errorf("names = %v", Names())
	}
	if _, err := Run("nonsense", tinyOptions()); err == nil {
		t.Error("unknown experiment should fail")
	}
	tb, err := Run(NameTable1, tinyOptions())
	if err != nil || tb == nil {
		t.Errorf("dispatch failed: %v", err)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Config == nil || len(o.Benchmarks) < 16 || o.Quantum <= 0 || o.Parallelism < 1 || o.Warmup <= 0 {
		t.Errorf("normalized = %+v", o)
	}
	sub := Options{Benchmarks: []string{"a", "b", "c", "d", "e", "f", "g", "h"}}.subset()
	if len(sub) == 0 || len(sub) > 6 {
		t.Errorf("subset = %v", sub)
	}
}

func TestRunSweepPropagatesErrors(t *testing.T) {
	o := tinyOptions().normalized()
	spec, err := specThread("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	good := soloJob(o, "good", spec, dtm.StopAndGo, false)
	bad := soloJob(o, "bad", spec, "voodoo-policy", false)
	o.Parallelism = 1
	results, sum, err := runSweep(context.Background(), []job{good, bad}, o)
	if err == nil {
		t.Error("bad policy job should surface an error")
	}
	if results != nil {
		t.Errorf("results should be nil on error, got %v", results)
	}
	// The summary still accounts for the work that did complete.
	if sum == nil || sum.Jobs != 2 || sum.Succeeded != 1 || sum.Failed != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestRunSweepCancellation(t *testing.T) {
	o := tinyOptions().normalized()
	spec, err := specThread("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs []job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, soloJob(o, fmt.Sprintf("j%d", i), spec, dtm.StopAndGo, false))
	}
	_, sum, err := runSweep(ctx, jobs, o)
	if err == nil {
		t.Error("cancelled sweep should return an error")
	}
	if sum.Skipped == 0 {
		t.Errorf("cancelled sweep should skip jobs: %+v", sum)
	}
}

func TestSeedSentinelAndSeedSet(t *testing.T) {
	cfg := config.Default()
	cfg.Run.Seed = 42

	// Historical behaviour: Seed 0 without SeedSet falls back to the
	// config's seed.
	o := Options{Config: &cfg}.normalized()
	if o.Seed != 42 {
		t.Errorf("Seed 0 should normalize to config seed 42, got %d", o.Seed)
	}
	// SeedSet makes literal seed 0 requestable.
	o = Options{Config: &cfg, SeedSet: true}.normalized()
	if o.Seed != 0 {
		t.Errorf("SeedSet Seed 0 should stay 0, got %d", o.Seed)
	}
	// Nonzero seeds pass through either way.
	o = Options{Config: &cfg, Seed: 7}.normalized()
	if o.Seed != 7 {
		t.Errorf("Seed 7 should stay 7, got %d", o.Seed)
	}
}

// TestSeedZeroRunnable: a literal seed-0 experiment must actually run
// (the server round-trips seed 0 through cache keys).
func TestSeedZeroRunnable(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"crafty"}
	o.SeedSet = true
	tb, err := Figure3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // 1 benchmark + 3 variants
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestRegistryMetadata(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("%d infos for %d names", len(infos), len(Names()))
	}
	for i, name := range Names() {
		if infos[i].Name != name {
			t.Errorf("info %d: name %q out of order (want %q)", i, infos[i].Name, name)
		}
		in, ok := Describe(name)
		if !ok || in.Title == "" || in.Description == "" {
			t.Errorf("Describe(%q) = %+v, %v", name, in, ok)
		}
		// Every registered experiment must dispatch.
		if _, err := RunContext(context.Background(), name, Options{}); err != nil && strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("registered experiment %q does not dispatch", name)
		}
		break // dispatching all 14 for real would be slow; table1 suffices
	}
	if _, ok := Describe("nope"); ok {
		t.Error("Describe should reject unknown names")
	}
}

// TestExperimentProgress: the Options.Progress hook sees one monotonic
// event per simulation with the sweep's metrics attached.
func TestExperimentProgress(t *testing.T) {
	o := tinyOptions()
	o.Benchmarks = []string{"crafty"}
	var events []int
	var lastPeak float64
	o.Progress = func(p sweep.Progress) {
		events = append(events, p.Completed)
		if p.Total != 4 {
			t.Errorf("Total = %d, want 4", p.Total)
		}
		if v, ok := p.Metrics[sweep.MetricPeakTempK]; ok {
			lastPeak = v
		}
	}
	if _, err := Figure3(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	for i, c := range events {
		if c != i+1 {
			t.Errorf("event %d: Completed = %d", i, c)
		}
	}
	if lastPeak == 0 {
		t.Error("progress events carried no peak temperature metric")
	}
}
