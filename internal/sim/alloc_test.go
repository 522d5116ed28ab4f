package sim

import (
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// allocSim builds a warmed-up single-core simulator running gcc that
// has run one full quantum; see allocMachine.
func allocSim(t *testing.T, policy dtm.Kind, opts Options) *Simulator {
	t.Helper()
	return allocMachine(t, config.Default(), [][]Thread{{specThread(t, "gcc")}}, policy, opts)
}

// allocMachine builds a warmed-up simulator of the given machine that
// has run one full quantum, so AllocsPerRun measures the steady-state
// sensor pipeline, not construction or the first quantum's capacity
// growth.
func allocMachine(t *testing.T, cfg config.Config, coreThreads [][]Thread, policy dtm.Kind, opts Options) *Simulator {
	t.Helper()
	cfg.Run.QuantumCycles = 1_000_000
	opts.Policy = policy
	s, err := NewMulti(cfg, coreThreads, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One full quantum grows every buffer to its high-water mark.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// stepOneInterval opens a quantum and returns a step that advances it
// by exactly one sensor interval — the sensor pipeline's unit of work
// — through RunCycles' per-chunk helper.
func stepOneInterval(t *testing.T, s *Simulator) func() {
	t.Helper()
	interval := int64(s.cfg.Thermal.SensorIntervalCycles)
	quantum := s.cfg.Run.QuantumCycles
	var qr *quantumRun
	open := func() {
		var err error
		if qr, err = s.openQuantum(quantum); err != nil {
			t.Fatal(err)
		}
	}
	open()
	return func() {
		if qr.done+interval > quantum {
			// Re-open a fresh quantum when the current one runs out.
			s.closeQuantum(qr)
			open()
		}
		for end := qr.done + interval; qr.done < end; {
			if err := s.runChunk(qr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSensorPipelineZeroAllocs pins the per-sensor-interval allocation
// count of the full sensor pipeline — monitor sample, power interval,
// thermal step, policy tick, samples — at zero for every observation
// mode: the hot path must not allocate whether or not samples or the
// event stream are collected. The sample path is also gated in its
// other shapes: "temps" gives every core of a 2-core die its own
// temperature series, and "recorder" records both threads of an SMT
// pair.
func TestSensorPipelineZeroAllocs(t *testing.T) {
	die := config.Default()
	die.Topology = config.Topology{Cores: 2, Solver: config.SolverGrid, GridN: 16}
	solo := [][]Thread{{specThread(t, "gcc")}}
	cases := []struct {
		name    string
		cfg     config.Config
		threads [][]Thread
		opts    Options
	}{
		{"bare", config.Default(), solo, Options{}},
		{"events", config.Default(), solo, Options{CollectEvents: true}},
		{"samples", config.Default(), solo, Options{CollectSamples: true}},
		{"samples+events", config.Default(), solo, Options{CollectSamples: true, CollectEvents: true}},
		{"temps", die, attackVictimThreads(t), Options{CollectSamples: true}},
		{"recorder", config.Default(), [][]Thread{{specThread(t, "gcc"), variantThread(t, 2)}}, Options{CollectSamples: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := allocMachine(t, tc.cfg, tc.threads, dtm.StopAndGo, tc.opts)
			step := stepOneInterval(t, s)
			if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
				t.Fatalf("sensor interval allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestSensorPipelineZeroAllocsSedation repeats the gate, every
// observer on, under the paper's policy, whose tick path (monitor
// scan, engine bookkeeping) is the most involved.
func TestSensorPipelineZeroAllocsSedation(t *testing.T) {
	s := allocSim(t, dtm.SelectiveSedation, Options{CollectEvents: true, CollectSamples: true})
	step := stepOneInterval(t, s)
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("sensor interval allocates %.1f times per run, want 0", allocs)
	}
}
