package sim

import (
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

// allocSim builds a warmed-up simulator that has run one full
// quantum, so AllocsPerRun measures the steady-state sensor pipeline,
// not construction or the first quantum's capacity growth.
func allocSim(t *testing.T, policy dtm.Kind, opts Options) *Simulator {
	t.Helper()
	cfg := config.Default()
	cfg.Run.QuantumCycles = 1_000_000
	prog, err := workload.Spec("gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Policy = policy
	s, err := New(cfg, []Thread{{Name: "gcc", Prog: prog}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One full quantum grows every buffer to its high-water mark. A
	// caller that drains the recorder per quantum resets it, which is
	// what keeps the record path allocation-free afterwards.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if opts.Recorder != nil {
		opts.Recorder.Reset()
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
			if s.opts.Recorder != nil {
				s.opts.Recorder.Reset()
			}
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
// thermal step, policy tick — at zero for every observation mode: the
// hot path must not allocate whether or not a recorder or the event
// stream is attached.
func TestSensorPipelineZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"bare", Options{}},
		{"events", Options{CollectEvents: true}},
		{"temps", Options{TraceTemps: true}},
		{"recorder", Options{Recorder: &trace.Recorder{}}},
		{"recorder+events", Options{Recorder: &trace.Recorder{}, CollectEvents: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := allocSim(t, dtm.StopAndGo, tc.opts)
			step := stepOneInterval(t, s)
			if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
				t.Fatalf("sensor interval allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestTraceQuantumDisabledZeroAlloc pins the tracing-off fast path:
// with no Tracer attached, the quantum-boundary trace hook is a single
// nil check — zero allocations, zero time reads — so a daemon running
// with -trace-buf -1 pays nothing per quantum.
func TestTraceQuantumDisabledZeroAlloc(t *testing.T) {
	s := allocSim(t, dtm.StopAndGo, Options{})
	res := &Result{Cycles: 1_000_000, PeakTemp: 350}
	if allocs := testing.AllocsPerRun(100, func() {
		s.traceQuantum(res, 0)
	}); allocs > 0 {
		t.Fatalf("disabled traceQuantum allocates %.1f times per run, want 0", allocs)
	}
	// An attached tracer without a span context is still a no-op: the
	// simulator never invents trace roots of its own.
	s.opts.Tracer = tracing.NewTracer("sim-test", 16)
	if allocs := testing.AllocsPerRun(100, func() {
		s.traceQuantum(res, 0)
	}); allocs > 0 {
		t.Fatalf("parentless traceQuantum allocates %.1f times per run, want 0", allocs)
	}
	if got := s.opts.Tracer.Recorded(); got != 0 {
		t.Fatalf("parentless traceQuantum recorded %d spans, want 0", got)
	}
}

// TestSensorPipelineZeroAllocsSedation repeats the gate under the
// paper's policy, whose tick path (monitor scan, engine bookkeeping)
// is the most involved.
func TestSensorPipelineZeroAllocsSedation(t *testing.T) {
	s := allocSim(t, dtm.SelectiveSedation, Options{CollectEvents: true})
	step := stepOneInterval(t, s)
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("sensor interval allocates %.1f times per run, want 0", allocs)
	}
}
