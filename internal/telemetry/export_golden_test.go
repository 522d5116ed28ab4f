// Golden pins for the canonical attacker+victim sedation run: the
// NDJSON event timeline and the Perfetto trace must be byte-identical
// run to run (the simulator is deterministic and both exporters render
// deterministically). Lives in an external package because it drives
// the full simulator, which itself imports telemetry.
package telemetry_test

import (
	"bytes"
	"flag"

	"os"
	"path/filepath"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// canonicalRun is the attack pair of the paper's Figure 4 discussion:
// crafty as the victim, variant 2 as the attacker, selective sedation
// with the stop-and-go safety net.
func canonicalRun(t *testing.T) (*sim.Result, []trace.Sample, config.Config, []string) {
	t.Helper()
	cfg := config.Default()
	cfg.Run.QuantumCycles = 4_000_000
	victim, err := workload.Spec("crafty", cfg.Run.Seed)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := workload.VariantForScale(2, cfg.Thermal.Scale)
	if err != nil {
		t.Fatal(err)
	}
	threads := []sim.Thread{{Name: "crafty", Prog: victim}, {Name: "variant2", Prog: attacker}}
	s, err := sim.New(cfg, threads, sim.Options{
		Policy:         dtm.SelectiveSedation,
		WarmupCycles:   500_000,
		CollectEvents:  true,
		CollectSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("canonical run produced no events; goldens would be vacuous")
	}
	return res, trace.Stride(res.Samples, 4), cfg, []string{"crafty", "variant2"}
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d bytes vs %d); run with -update if intentional",
			name, len(got), len(want))
	}
}

func TestGoldenExports(t *testing.T) {
	res, samples, cfg, names := canonicalRun(t)

	var ndjson bytes.Buffer
	if err := telemetry.WriteNDJSON(&ndjson, res.Events); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "sedation_events.ndjson", ndjson.Bytes())

	var perfetto bytes.Buffer
	if err := telemetry.WritePerfetto(&perfetto, telemetry.TraceOptions{
		FrequencyHz: cfg.Power.FrequencyHz,
		ThreadNames: names,
		Events:      res.Events,
		Samples:     samples,
	}); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "sedation_trace.perfetto.json", perfetto.Bytes())
}

// TestGoldenEventsMatchTrace is the acceptance cross-check at golden
// scale: reconstructing each thread's sedated state from the event
// stream must agree with the sampled flags at every retained sensor
// boundary.
func TestGoldenEventsMatchTrace(t *testing.T) {
	res, samples, _, _ := canonicalRun(t)
	sedated := map[int]bool{}
	i := 0
	checked := 0
	for _, smp := range samples {
		for ; i < len(res.Events) && res.Events[i].Cycle <= smp.Cycle; i++ {
			switch res.Events[i].Kind {
			case telemetry.KindSedate:
				sedated[res.Events[i].Thread] = true
			case telemetry.KindResume:
				sedated[res.Events[i].Thread] = false
			}
		}
		for tid, want := range smp.ThreadSedated {
			if sedated[tid] != want {
				t.Fatalf("cycle %d thread %d: events say sedated=%v, trace says %v",
					smp.Cycle, tid, sedated[tid], want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no samples cross-checked")
	}
	var sawSedated bool
	for _, smp := range samples {
		for _, s := range smp.ThreadSedated {
			sawSedated = sawSedated || s
		}
	}
	if !sawSedated {
		t.Error("canonical run never sedated anyone; the cross-check is vacuous")
	}
}
