package sim

import (
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

func quickCfg() config.Config {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 400_000
	return cfg
}

func specThread(t *testing.T, name string) Thread {
	t.Helper()
	prog, err := workload.Spec(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Thread{Name: name, Prog: prog}
}

func variantThread(t *testing.T, n int) Thread {
	t.Helper()
	prog, err := workload.Variant(n)
	if err != nil {
		t.Fatal(err)
	}
	return Thread{Name: "variant", Prog: prog}
}

// multiCfg is a grid die of the given core count with a short quantum.
func multiCfg(cores int) config.Config {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 200_000
	cfg.Topology = config.Topology{Cores: cores, Solver: config.SolverGrid, GridN: 16}
	return cfg
}

// attackVictimThreads puts the attack variant alone on core 0 and a
// benign benchmark alone on core 1 — the neighbor-heat shape.
func attackVictimThreads(t *testing.T) [][]Thread {
	t.Helper()
	return [][]Thread{
		{variantThread(t, 2)},
		{specThread(t, "gcc")},
	}
}

// testMachine is one machine the suites below run on.
type testMachine struct {
	name    string
	cfg     config.Config
	threads [][]Thread
}

// testMachines are the two machines every suite covers: the paper's
// single core on the lumped network with the attack pair sharing it,
// and a 2-core grid die with the attack on core 0 and the victim on
// core 1.
func testMachines(t *testing.T) []testMachine {
	t.Helper()
	return []testMachine{
		{"1-core", quickCfg(), [][]Thread{{specThread(t, "crafty"), variantThread(t, 2)}}},
		{"2-core", multiCfg(2), attackVictimThreads(t)},
	}
}

func (m testMachine) build(t *testing.T, o Options) *Simulator {
	t.Helper()
	s, err := NewMulti(m.cfg, m.threads, o)
	if err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
	return s
}

// scopeOptions enumerates every scope and policy a simulator runs: the
// five per-core kinds plus the chip scope.
func scopeOptions() []Options {
	var out []Options
	for _, k := range dtm.Kinds() {
		out = append(out, Options{Scope: dtm.ScopePerCore, Policy: k})
	}
	return append(out, Options{Scope: dtm.ScopeChip, Policy: dtm.ChipRoundRobin})
}

// coreResults returns a result's per-core results: the result itself
// on one core.
func coreResults(res *Result) []Result {
	if res.Cores == nil {
		return []Result{*res}
	}
	return res.Cores
}

// TestRunInvariantsEveryPolicy checks one quantum's bookkeeping on the
// single core under every scope and policy.
func TestRunInvariantsEveryPolicy(t *testing.T) { checkRunInvariants(t, testMachines(t)[0]) }

// TestMultiRunInvariants is TestRunInvariantsEveryPolicy on the 2-core
// die.
func TestMultiRunInvariants(t *testing.T) { checkRunInvariants(t, testMachines(t)[1]) }

// checkRunInvariants runs one quantum on m under every scope and
// policy: each thread's stall breakdown sums to the quantum, IPC stays
// in range, the chip's peak is its hottest core's, and power is
// accounted.
func checkRunInvariants(t *testing.T, m testMachine) {
	t.Helper()
	for _, o := range scopeOptions() {
		o.WarmupCycles = 50_000
		label := m.name + "/" + string(o.Policy)
		res, err := m.build(t, o).Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Cycles != m.cfg.Run.QuantumCycles {
			t.Errorf("%s: cycles %d, want %d", label, res.Cycles, m.cfg.Run.QuantumCycles)
		}
		cores := coreResults(res)
		if len(cores) != len(m.threads) {
			t.Fatalf("%s: %d core results", label, len(cores))
		}
		peak := -1.0
		for c, cr := range cores {
			if len(cr.Threads) != len(m.threads[c]) {
				t.Fatalf("%s core %d: %d thread results", label, c, len(cr.Threads))
			}
			for i, tr := range cr.Threads {
				if tr.Breakdown.Total() != res.Cycles {
					t.Errorf("%s core %d thread %d: breakdown total %d != %d", label, c, i, tr.Breakdown.Total(), res.Cycles)
				}
				if tr.IPC < 0 || tr.IPC > 8 {
					t.Errorf("%s core %d thread %d: IPC %f out of range", label, c, i, tr.IPC)
				}
				if tr.Committed == 0 && o.Policy != dtm.StopAndGo && o.Policy != dtm.ChipRoundRobin {
					t.Errorf("%s core %d thread %d: no progress", label, c, i)
				}
			}
			if cr.PeakTemp < m.cfg.Thermal.AmbientK {
				t.Errorf("%s core %d: peak temp %f below ambient", label, c, cr.PeakTemp)
			}
			peak = max(peak, cr.PeakTemp)
		}
		if res.PeakTemp != peak || cores[res.PeakCore].PeakTemp != peak {
			t.Errorf("%s: chip peak %f on core %d, hottest core peaks at %f", label, res.PeakTemp, res.PeakCore, peak)
		}
		if res.TotalPowerW <= 0 {
			t.Errorf("%s: total power %f", label, res.TotalPowerW)
		}
	}
}

func TestIdealSinkHoldsTemps(t *testing.T) {
	cfg := quickCfg()
	cfg.Thermal.IdealSink = true
	s, err := New(cfg, []Thread{variantThread(t, 1)}, Options{Policy: dtm.None})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Emergencies != 0 || res.StopGoCycles != 0 {
		t.Error("ideal sink should never trigger thermal events")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	mk := func(warmup int64) *Result {
		cfg := quickCfg()
		s, err := New(cfg, []Thread{specThread(t, "crafty")}, Options{Policy: dtm.StopAndGo, WarmupCycles: warmup})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := mk(0)
	warm := mk(400_000)
	// Warm caches: measured IPC must be at least as good, and the
	// cycle count identical (warmup cycles not counted).
	if warm.Cycles != cold.Cycles {
		t.Errorf("cycles differ: %d vs %d", warm.Cycles, cold.Cycles)
	}
	if warm.Threads[0].IPC < cold.Threads[0].IPC {
		t.Errorf("warm IPC %.3f < cold IPC %.3f", warm.Threads[0].IPC, cold.Threads[0].IPC)
	}
}

func TestTraceTemps(t *testing.T) {
	cfg := quickCfg()
	s, err := New(cfg, []Thread{specThread(t, "mcf")}, Options{Policy: dtm.StopAndGo, TraceTemps: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := int(cfg.Run.QuantumCycles) / cfg.Thermal.SensorIntervalCycles
	if len(res.RFTrace) != want {
		t.Errorf("trace length %d, want %d", len(res.RFTrace), want)
	}
	for _, temp := range res.RFTrace {
		if temp < cfg.Thermal.AmbientK || temp > 400 {
			t.Fatalf("traced temperature %f implausible", temp)
		}
	}
}

func TestSedationIdentifiesAttacker(t *testing.T) {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 6_000_000
	s, err := New(cfg, []Thread{specThread(t, "crafty"), variantThread(t, 2)},
		Options{Policy: dtm.SelectiveSedation, WarmupCycles: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("attack should produce sedation reports")
	}
	for _, r := range res.Reports {
		if r.Thread != 1 {
			t.Errorf("report named thread %d (%s); want the attacker", r.Thread, res.Threads[r.Thread].Name)
		}
		if r.Unit != power.UnitIntReg {
			t.Errorf("report for %s, want IntReg", r.Unit)
		}
	}
	if res.Threads[1].Breakdown.SedationCycles == 0 {
		t.Error("attacker should spend time sedated")
	}
	if res.Threads[0].Breakdown.SedationCycles != 0 {
		t.Error("victim must not be sedated")
	}
	if res.Sedation.Sedations == 0 {
		t.Error("sedation stats empty")
	}
}

func TestHeatStrokeDegradesAndSedationRestores(t *testing.T) {
	// The headline end-to-end behaviour at test scale.
	run := func(threads []Thread, policy dtm.Kind) *Result {
		cfg := config.Default()
		cfg.Run.QuantumCycles = 8_000_000
		s, err := New(cfg, threads, Options{Policy: policy, WarmupCycles: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	solo := run([]Thread{specThread(t, "crafty")}, dtm.StopAndGo)
	attack := run([]Thread{specThread(t, "crafty"), variantThread(t, 2)}, dtm.StopAndGo)
	cured := run([]Thread{specThread(t, "crafty"), variantThread(t, 2)}, dtm.SelectiveSedation)

	soloIPC := solo.Threads[0].IPC
	attackIPC := attack.Threads[0].IPC
	curedIPC := cured.Threads[0].IPC
	if attackIPC > soloIPC*0.6 {
		t.Errorf("heat stroke too weak: solo %.2f attack %.2f", soloIPC, attackIPC)
	}
	if curedIPC < soloIPC*0.8 {
		t.Errorf("sedation too weak: solo %.2f cured %.2f", soloIPC, curedIPC)
	}
	if attack.Emergencies == 0 {
		t.Error("attack should cause emergencies")
	}
	if cured.Emergencies > attack.Emergencies/2 {
		t.Errorf("sedation should cut emergencies: %d vs %d", cured.Emergencies, attack.Emergencies)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := quickCfg()
	if _, err := New(cfg, nil, Options{}); err == nil {
		t.Error("no threads should fail")
	}
	if _, err := New(cfg, []Thread{{Name: "x"}}, Options{}); err == nil {
		t.Error("nil program should fail")
	}
	if _, err := New(cfg, []Thread{specThread(t, "gcc")}, Options{Policy: "voodoo"}); err == nil {
		t.Error("unknown policy should fail")
	}
	bad := cfg
	bad.Thermal.SensorIntervalCycles = 1500 // not a multiple of 1000
	if _, err := New(bad, []Thread{specThread(t, "gcc")}, Options{}); err == nil {
		t.Error("misaligned intervals should fail")
	}
	s, err := New(cfg, []Thread{specThread(t, "gcc")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCycles(0); err == nil {
		t.Error("zero quantum should fail")
	}
}

func TestAccessors(t *testing.T) {
	s, err := New(quickCfg(), []Thread{specThread(t, "gcc")}, Options{Policy: dtm.SelectiveSedation})
	if err != nil {
		t.Fatal(err)
	}
	if s.Core() == nil || s.Solver() == nil || s.Monitor() == nil || s.Policy() == nil {
		t.Error("accessors returned nil")
	}
	if s.Policy().Name() != dtm.SelectiveSedation {
		t.Error("policy kind wrong")
	}
}

func TestRecorderIntegration(t *testing.T) {
	cfg := quickCfg()
	rec := &trace.Recorder{}
	s, err := New(cfg, []Thread{specThread(t, "gcc")}, Options{Policy: dtm.StopAndGo, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := int(cfg.Run.QuantumCycles) / cfg.Thermal.SensorIntervalCycles
	if rec.Len() != want {
		t.Fatalf("samples = %d, want %d", rec.Len(), want)
	}
	sum := rec.Summarize()
	if sum.PeakTempK < cfg.Thermal.AmbientK || sum.MeanPowerW <= 0 {
		t.Errorf("summary implausible: %+v", sum)
	}
	// Per-interval IPC values must be sane.
	for _, smp := range rec.Samples {
		for _, ipc := range smp.ThreadIPC {
			if ipc < 0 || ipc > 8 {
				t.Fatalf("interval IPC %f out of range", ipc)
			}
		}
	}
}

// TestEventStream locks the tentpole's simulator contract: with
// CollectEvents the attack pair produces a typed DTM timeline whose
// sedation begin/end events agree exactly with the per-thread sedated
// flags the trace recorder samples at the same sensor boundaries, and
// enabling collection changes nothing else about the Result.
func TestEventStream(t *testing.T) {
	run := func(collect bool, rec *trace.Recorder) *Result {
		cfg := config.Default()
		cfg.Run.QuantumCycles = 6_000_000
		s, err := New(cfg, []Thread{specThread(t, "crafty"), variantThread(t, 2)},
			Options{Policy: dtm.SelectiveSedation, WarmupCycles: 300_000,
				CollectEvents: collect, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := &trace.Recorder{}
	res := run(true, rec)
	if len(res.Events) == 0 {
		t.Fatal("attack run produced no events")
	}

	// Emission order is chronological, every event sits on a sensor
	// boundary, and sedations name the attacker with a positive score.
	last := int64(0)
	kinds := map[telemetry.EventKind]int{}
	for _, ev := range res.Events {
		if ev.Cycle < last {
			t.Fatalf("events out of order: %d after %d", ev.Cycle, last)
		}
		last = ev.Cycle
		kinds[ev.Kind]++
		if ev.Kind == telemetry.KindSedate {
			if ev.Thread != 1 {
				t.Errorf("sedate named thread %d, want the attacker", ev.Thread)
			}
			if ev.Rate <= 0 || ev.TempK <= 0 {
				t.Errorf("sedate event missing score/temp: %+v", ev)
			}
		}
	}
	for _, k := range []telemetry.EventKind{telemetry.KindThresholdUpper, telemetry.KindSedate,
		telemetry.KindResume, telemetry.KindOSReport} {
		if kinds[k] == 0 {
			t.Errorf("no %s events (have %v)", k, kinds)
		}
	}
	if kinds[telemetry.KindSedate] != int(res.Sedation.Sedations) {
		t.Errorf("sedate events = %d, engine counted %d", kinds[telemetry.KindSedate], res.Sedation.Sedations)
	}

	// Replay the event stream into a per-thread sedated timeline and
	// check it against the recorder's sampled flags at every sensor
	// boundary (the acceptance cross-check: trace CSV vs event stream).
	sedated := make([]bool, 2)
	i := 0
	for _, smp := range rec.Samples {
		for ; i < len(res.Events) && res.Events[i].Cycle <= smp.Cycle; i++ {
			ev := res.Events[i]
			switch ev.Kind {
			case telemetry.KindSedate:
				sedated[ev.Thread] = true
			case telemetry.KindResume:
				sedated[ev.Thread] = false
			}
		}
		for tid, want := range smp.ThreadSedated {
			if sedated[tid] != want {
				t.Fatalf("cycle %d thread %d: events say sedated=%v, trace says %v",
					smp.Cycle, tid, sedated[tid], want)
			}
		}
	}

	// Collection must not perturb the measurements.
	plain := run(false, nil)
	if plain.Events != nil {
		t.Fatal("events collected without CollectEvents")
	}
	withEvents := run(true, nil)
	withEvents.Events = nil
	if !reflect.DeepEqual(plain, withEvents) {
		t.Error("CollectEvents changed the measured Result")
	}
}

// TestEventStreamStopGo: the base-case policy brackets its global
// stalls, and the stall flag in the trace agrees.
func TestEventStreamStopGo(t *testing.T) {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 6_000_000
	rec := &trace.Recorder{}
	s, err := New(cfg, []Thread{specThread(t, "crafty"), variantThread(t, 2)},
		Options{Policy: dtm.StopAndGo, WarmupCycles: 300_000, CollectEvents: true, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	engage, release := 0, 0
	open := false
	for _, ev := range res.Events {
		switch ev.Kind {
		case telemetry.KindStopGoEngage:
			if open {
				t.Fatal("double engage")
			}
			open = true
			engage++
			if ev.TempK < cfg.Thermal.EmergencyK {
				t.Errorf("engaged below the emergency temperature: %+v", ev)
			}
		case telemetry.KindStopGoRelease:
			if !open {
				t.Fatal("release without engage")
			}
			open = false
			release++
		}
	}
	if engage == 0 {
		t.Fatal("attack under stop-and-go never engaged")
	}
	if res.StopGoCycles == 0 {
		t.Error("no stalled cycles despite engagements")
	}
	if engage != res.Emergencies {
		t.Errorf("engagements %d != emergencies %d", engage, res.Emergencies)
	}
}
