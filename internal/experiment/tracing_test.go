package experiment

import (
	"bytes"
	"context"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
)

// TestTracingDoesNotPerturbResults is the observer-effect gate: an
// experiment run under a live tracer (every sweep.job, warmup, and
// sim.quantum span recorded) renders a byte-identical table to the
// same run with tracing absent. Spans observe the simulation; they
// must never feed back into it. A whole-die experiment traces each
// job's quantum like a single-core one does.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, name := range []string{NameFigure3, NameFigure4, NameNeighborHeat} {
		t.Run(name, func(t *testing.T) {
			options := func() Options {
				if name == NameNeighborHeat {
					o := multiOptions()
					o.Quantum = 300_000
					return o
				}
				o := tinyOptions()
				o.Seed = 11
				o.Parallelism = 2
				return o
			}
			render := func(ctx context.Context) string {
				tb, err := RunContext(ctx, name, options())
				if err != nil {
					t.Fatal(err)
				}
				var csv bytes.Buffer
				if err := tb.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				return tb.String() + csv.String()
			}

			plain := render(context.Background())

			tr := tracing.NewTracer("test", 0)
			tctx, root := tracing.StartSpan(tracing.ContextWithTracer(context.Background(), tr), "experiment.test")
			traced := render(tctx)
			root.End()

			if plain != traced {
				t.Errorf("tracing perturbed the rendered result:\n--- off\n%s\n--- on\n%s", plain, traced)
			}
			if tr.Recorded() == 0 {
				t.Error("tracer recorded no spans: the traced run was not actually traced")
			}
			if name != NameNeighborHeat {
				return
			}
			// One benchmark, a benign and a trojan die: two jobs, each
			// with exactly one quantum span under its sweep.job span.
			jobs := map[string]bool{}
			quanta := map[string]int{}
			for _, sp := range tr.All() {
				switch sp.Name {
				case "sweep.job":
					jobs[sp.SpanID] = true
				case "sim.quantum":
					quanta[sp.ParentID]++
				}
			}
			if len(jobs) != 2 {
				t.Fatalf("%d sweep.job spans, want 2", len(jobs))
			}
			for parent, n := range quanta {
				if !jobs[parent] || n != 1 {
					t.Errorf("%d sim.quantum spans under %s (a sweep.job: %v), want one per job", n, parent, jobs[parent])
				}
			}
			if len(quanta) != len(jobs) {
				t.Errorf("sim.quantum spans under %d of %d die jobs", len(quanta), len(jobs))
			}
		})
	}
}

// TestDieResultAccountsPower: a whole-die job's Result carries the
// die's average power, summed over its cores.
func TestDieResultAccountsPower(t *testing.T) {
	o := multiOptions()
	o.Quantum = 300_000
	o = o.normalized()
	gcc, err := specThread("gcc", o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	j := dieJob(o, "die", [][]sim.Thread{{gcc}, {gcc}}, dtm.ScopePerCore, dtm.StopAndGo)
	res, _, err := runSweep(context.Background(), []job{j}, o)
	if err != nil {
		t.Fatal(err)
	}
	if r := res["die"]; len(r.Cores) != 2 || r.TotalPowerW <= 0 {
		t.Errorf("die result: %d cores, total power %v W", len(r.Cores), r.TotalPowerW)
	}
}
