// Benchmark harness: one target per table/figure of the paper's
// evaluation plus the DESIGN.md ablations, and microbenchmarks for the
// simulator substrates.
//
// The experiment benches run a reduced configuration by default (two
// benchmarks, short quanta) so `go test -bench=.` finishes in minutes
// on one core; set HEATSTROKE_BENCH_FULL=1 to regenerate the figures at
// full scale (all benchmarks, 8M-cycle quanta — use cmd/heatstroke for
// the rendered tables).
//
// HEATSTROKE_BENCH_CPUPROFILE and HEATSTROKE_BENCH_MEMPROFILE name
// files to receive pprof profiles of the whole benchmark run. They
// exist for wrappers like cmd/heatstroke-bench that invoke `go test`
// on several packages at once, where per-package -cpuprofile flags
// would clobber each other's output paths.
package heatstroke_test

import (
	"context"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	heatstroke "github.com/heatstroke-sim/heatstroke"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
)

func TestMain(m *testing.M) {
	// Not os.Exit(m.Run()) directly: the profile defers must flush
	// before the process exits.
	os.Exit(func() int {
		if path := os.Getenv("HEATSTROKE_BENCH_CPUPROFILE"); path != "" {
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				log.Fatal(err)
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if path := os.Getenv("HEATSTROKE_BENCH_MEMPROFILE"); path != "" {
			defer func() {
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					log.Fatal(err)
				}
			}()
		}
		return m.Run()
	}())
}

func benchOptions(b *testing.B) heatstroke.ExperimentOptions {
	b.Helper()
	cfg := heatstroke.DefaultConfig()
	opts := heatstroke.ExperimentOptions{Config: &cfg}
	if os.Getenv("HEATSTROKE_BENCH_FULL") == "1" {
		cfg.Run.QuantumCycles = 8_000_000
		return opts
	}
	cfg.Run.QuantumCycles = 1_000_000
	opts.Benchmarks = []string{"crafty", "mcf"}
	opts.Warmup = 200_000
	return opts
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	opts := benchOptions(b)
	for i := 0; i < b.N; i++ {
		table, err := heatstroke.RunExperiment(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable1Config regenerates Table 1 (system parameters).
func BenchmarkTable1Config(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure3AccessRates regenerates Figure 3 (average integer
// register-file access rates, solo runs).
func BenchmarkFigure3AccessRates(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4Emergencies regenerates Figure 4 (temperature
// emergencies per OS quantum).
func BenchmarkFigure4Emergencies(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5IPC regenerates Figure 5 (SPEC IPC under heat stroke
// and selective sedation, eleven configurations per benchmark).
func BenchmarkFigure5IPC(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6Breakdown regenerates Figure 6 (execution-time
// breakdown).
func BenchmarkFigure6Breakdown(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkHeatSinkSensitivity regenerates the Section 5.5 study
// (convection-resistance sweep).
func BenchmarkHeatSinkSensitivity(b *testing.B) { runExperiment(b, "heatsink") }

// BenchmarkThresholdSensitivity regenerates the Section 5.6 study
// (upper/lower threshold sweep).
func BenchmarkThresholdSensitivity(b *testing.B) { runExperiment(b, "thresholds") }

// BenchmarkSpecPairFalsePositives regenerates the Section 5.7 study
// (SPEC pairs, sedation vs stop-and-go).
func BenchmarkSpecPairFalsePositives(b *testing.B) { runExperiment(b, "specpairs") }

// BenchmarkTimingDutyCycle regenerates the Section 3.1 heat/cool
// timing measurement.
func BenchmarkTimingDutyCycle(b *testing.B) { runExperiment(b, "timing") }

// BenchmarkPolicyComparison regenerates the five-policy DTM comparison.
func BenchmarkPolicyComparison(b *testing.B) { runExperiment(b, "policies") }

// BenchmarkAblationFetchPolicy regenerates the ICOUNT vs round-robin
// fetch ablation.
func BenchmarkAblationFetchPolicy(b *testing.B) { runExperiment(b, "ablation-fetchpolicy") }

// BenchmarkAblationFlatAverage regenerates the weighted-average vs
// flat-count culprit-identification ablation (Section 3.2.1).
func BenchmarkAblationFlatAverage(b *testing.B) { runExperiment(b, "ablation-flatavg") }

// BenchmarkAblationAbsoluteThreshold regenerates the temperature-trigger
// vs absolute-threshold ablation (Section 3.2.1).
func BenchmarkAblationAbsoluteThreshold(b *testing.B) { runExperiment(b, "ablation-absthresh") }

// BenchmarkAblationMultiCulprit regenerates the two-attacker
// re-examination ablation (Section 3.2.2) on a 4-context SMT.
func BenchmarkAblationMultiCulprit(b *testing.B) { runExperiment(b, "ablation-multiculprit") }

// BenchmarkWarmupReuse measures what warmup-snapshot sharing buys: the
// policies experiment runs every DTM policy over the same thread sets,
// so all jobs for one benchmark share a single warm key. The reuse arm
// warms once per key and restores everywhere else; the cold arm
// (DisableWarmupReuse) re-simulates every warmup. Warmup is pinned at
// a third of each job's cycles so the difference is well above noise.
func BenchmarkWarmupReuse(b *testing.B) {
	run := func(disable bool) func(*testing.B) {
		return func(b *testing.B) {
			opts := benchOptions(b)
			opts.Warmup = 500_000
			opts.DisableWarmupReuse = disable
			for i := 0; i < b.N; i++ {
				table, err := heatstroke.RunExperiment("policies", opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(table.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		}
	}
	b.Run("reuse", run(false))
	b.Run("cold", run(true))
}

// BenchmarkForkSweep measures what the fork-tree engine buys over cold
// per-variant runs on the dense threshold grid — the sweep fork trees
// exist to make affordable. The fork arm simulates each thread set's
// warmup prefix once and forks every grid point from the in-memory
// snapshot; the cold arm re-simulates every warmup. With warmup pinned
// equal to the measured quantum, the cold arm does ~1.8x the fork
// arm's simulation work (per benchmark: 15 warmups + 15 quanta vs 2
// warmups + 15 quanta), so the fork arm's wall-clock win is well above
// noise at any parallelism.
func BenchmarkForkSweep(b *testing.B) {
	run := func(fork bool) func(*testing.B) {
		return func(b *testing.B) {
			opts := benchOptions(b)
			opts.Warmup = 500_000
			opts.Quantum = 500_000
			opts.ForkTree = fork
			opts.DisableWarmupReuse = !fork
			for i := 0; i < b.N; i++ {
				table, err := heatstroke.RunExperiment("thresholds-dense", opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(table.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		}
	}
	b.Run("fork", run(true))
	b.Run("cold", run(false))
}

// BenchmarkMultiWarmShare measures what the whole-die warm share buys
// on the multi-core experiments: dtm-scope (three DTM scopes over one
// thread set per victim) and neighbor-heat (a benign and a trojan
// neighbour per victim) on a 2-core grid die. The shared arm warms each
// distinct core program and the die once per experiment run and
// restores them into every later job; the cold arm
// (DisableWarmupReuse) simulates every core's warmup and relaxes every
// die from ambient. The measured quantum is short, so warmup and die
// initialisation dominate a job, as they do in the multi-core sweeps.
func BenchmarkMultiWarmShare(b *testing.B) {
	run := func(disable bool) func(*testing.B) {
		return func(b *testing.B) {
			opts := benchOptions(b)
			opts.Warmup = 500_000
			opts.Quantum = 100_000
			opts.DisableWarmupReuse = disable
			for i := 0; i < b.N; i++ {
				for _, name := range []string{"dtm-scope", "neighbor-heat"} {
					table, err := heatstroke.RunExperiment(name, opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(table.Rows) == 0 {
						b.Fatal("empty table")
					}
				}
			}
		}
	}
	b.Run("shared", run(false))
	b.Run("cold", run(true))
}

// ---- substrate microbenchmarks ----

// BenchmarkSweepEngine measures the sweep scheduler's per-job overhead
// (feeder, workers, metrics aggregation) with trivial jobs, so the
// orchestration cost stays invisible next to real simulations.
func BenchmarkSweepEngine(b *testing.B) {
	jobs := make([]sweep.Job[int64], 256)
	for i := range jobs {
		key := "job" + string(rune('a'+i%26))
		jobs[i] = sweep.Job[int64]{
			Key: key,
			Run: func(context.Context) (int64, error) {
				return sweep.DeriveSeed(1, key), nil
			},
		}
	}
	opts := sweep.Options[int64]{
		Parallelism: 4,
		Metrics: func(r sweep.JobResult[int64]) map[string]float64 {
			return map[string]float64{"seed": float64(r.Value % 1000)}
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(context.Background(), jobs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableExport measures the JSON and CSV artifact encoders on
// a full-evaluation-sized table.
func BenchmarkTableExport(b *testing.B) {
	tb := &heatstroke.ExperimentTable{
		Title:   "bench",
		Columns: []string{"benchmark", "ipc", "peak", "emergencies"},
	}
	for i := 0; i < 200; i++ {
		tb.Rows = append(tb.Rows, []string{"crafty", "1.93", "358.2", "12"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := tb.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineCycles measures raw simulation speed: reported as
// ns per simulated cycle of a busy 2-thread pipeline.
func BenchmarkPipelineCycles(b *testing.B) {
	cfg := heatstroke.DefaultConfig()
	cfg.Run.QuantumCycles = 1 // unused; we drive the core directly
	victim, err := heatstroke.SpecProgram("crafty", 1)
	if err != nil {
		b.Fatal(err)
	}
	attacker, err := heatstroke.Variant(2)
	if err != nil {
		b.Fatal(err)
	}
	s, err := heatstroke.NewSimulator(cfg, []heatstroke.Thread{
		{Name: "crafty", Prog: victim},
		{Name: "variant2", Prog: attacker},
	}, heatstroke.Options{})
	if err != nil {
		b.Fatal(err)
	}
	core := s.Core()
	b.ResetTimer()
	core.Run(int64(b.N))
}

// BenchmarkQuantumSimulation measures one full simulated quantum
// (pipeline + power + thermal + policy) per iteration.
func BenchmarkQuantumSimulation(b *testing.B) {
	cfg := heatstroke.DefaultConfig()
	cfg.Run.QuantumCycles = 500_000
	prog, err := heatstroke.SpecProgram("gcc", 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, err := heatstroke.NewSimulator(cfg, []heatstroke.Thread{{Name: "gcc", Prog: prog}},
			heatstroke.Options{Policy: heatstroke.PolicyStopAndGo})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures synthetic program synthesis.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := heatstroke.SpecProgram("gcc", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembler measures the two-pass assembler on a mid-sized
// listing.
func BenchmarkAssembler(b *testing.B) {
	prog, err := heatstroke.Variant(2)
	if err != nil {
		b.Fatal(err)
	}
	_ = prog
	text := "L$1:\taddl $1, $2, $3\n\tldq $4, 8($2)\n\tstq $4, 16($2)\n\tbeqz $4, L$1\n\tbr L$1\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heatstroke.Assemble("bench", text); err != nil {
			b.Fatal(err)
		}
	}
}
