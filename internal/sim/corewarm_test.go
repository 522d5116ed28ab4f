package sim

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// capturedState is a simulator's state as the tests compare it: every
// core's CaptureCore and the die's temperatures. It is the whole
// machine except the DTM policies, which a warmup's end builds fresh.
type capturedState struct {
	Cores []*CoreWarm
	Die   thermal.SolverState
}

func captureMachine(s *Simulator) capturedState {
	ms := capturedState{Die: s.Solver().State()}
	for c := range s.cores {
		ms.Cores = append(ms.Cores, s.CaptureCore(c))
	}
	return ms
}

// gobCopy returns ms's gob round trip: a copy that shares no memory
// with ms.
func gobCopy(t *testing.T, ms capturedState) capturedState {
	t.Helper()
	var buf bytes.Buffer
	var out capturedState
	if err := gob.NewEncoder(&buf).Encode(ms); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// warmParts warms a die cold, core by core, and returns every core's
// captured state and the die's post-warmup temperatures.
func warmParts(t *testing.T, cfg config.Config, coreThreads [][]Thread, mo Options) ([]*CoreWarm, thermal.SolverState) {
	t.Helper()
	m, err := NewMulti(cfg, coreThreads, mo)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*CoreWarm, len(coreThreads))
	for c := range coreThreads {
		if err := m.WarmCore(c); err != nil {
			t.Fatal(err)
		}
		cores[c] = m.CaptureCore(c)
	}
	if err := m.FinishWarmup(nil); err != nil {
		t.Fatal(err)
	}
	if !m.anchored {
		t.Fatal("warmup left the die unanchored")
	}
	return cores, m.solver.State()
}

// TestMultiWarmRestoreEquivalence: a machine whose warmup is assembled
// from shared parts — every core and the die restored, or some cores
// warmed in place next to restored ones — holds every core's state and
// the die's temperatures deep-equal to the cold run's once its warmup
// ends, and measures a deep-equal Result, under every scope and
// policy; and the restored runs leave the parts unchanged. It runs on
// the 2-core grid die and on the paper's single core, which restores
// the same way.
func TestMultiWarmRestoreEquivalence(t *testing.T) {
	for _, tm := range testMachines(t) {
		t.Run(tm.name, func(t *testing.T) { checkWarmRestoreEquivalence(t, tm) })
	}
}

func checkWarmRestoreEquivalence(t *testing.T, tm testMachine) {
	cfg, threads := tm.cfg, tm.threads
	quantum := cfg.Run.QuantumCycles
	parts, die := warmParts(t, cfg, threads, Options{WarmupCycles: 50_000})
	unrun := gobCopy(t, capturedState{parts, die})
	for _, mo := range scopeOptions() {
		mo.WarmupCycles = 50_000
		mo.CollectEvents = true
		mo.CollectSamples = true
		cold, err := NewMulti(cfg, threads, mo)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.warmup(); err != nil {
			t.Fatal(err)
		}
		wantState := captureMachine(cold)
		want, err := cold.RunCycles(quantum)
		if err != nil {
			t.Fatal(err)
		}
		type shape struct {
			name    string
			restore []bool
			die     bool
		}
		shapes := []shape{
			{"all shared", []bool{true, true}, true},
			{"core 1 warmed", []bool{true, false}, true},
			{"die anchored", []bool{false, true}, false},
		}
		if len(threads) == 1 {
			shapes = []shape{
				{"all shared", []bool{true}, true},
				{"die anchored", []bool{true}, false},
				{"core warmed", []bool{false}, true},
			}
		}
		for _, shape := range shapes {
			m, err := NewMulti(cfg, threads, mo)
			if err != nil {
				t.Fatal(err)
			}
			for c, r := range shape.restore {
				if r {
					err = m.RestoreCore(c, parts[c])
				} else {
					err = m.WarmCore(c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			var ds *thermal.SolverState
			if shape.die {
				ds = &die
			}
			if err := m.FinishWarmup(ds); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(captureMachine(m), wantState) {
				t.Errorf("%s, %s: machine state at the quantum's start differs from the cold run's",
					mo.Policy, shape.name)
			}
			got, err := m.RunCycles(quantum)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: result differs from the cold run", mo.Policy, shape.name)
			}
		}
	}
	if !reflect.DeepEqual(gobCopy(t, capturedState{parts, die}), unrun) {
		t.Error("the restored runs changed the warm parts they restored from")
	}
}

// TestCaptureIsDeepCopy: a captured core shares no memory with its
// simulator. Two identically built simulators warm up; running one of
// them a quantum must leave its capture deep-equal to the other's.
// (Two captures of one simulator would share whatever it aliases.)
func TestCaptureIsDeepCopy(t *testing.T) {
	for _, tm := range testMachines(t) {
		var caps []capturedState
		var sims []*Simulator
		for range 2 {
			s := tm.build(t, Options{Policy: dtm.SelectiveSedation, WarmupCycles: 50_000})
			for c := range tm.threads {
				if err := s.WarmCore(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FinishWarmup(nil); err != nil {
				t.Fatal(err)
			}
			caps, sims = append(caps, captureMachine(s)), append(sims, s)
		}
		if _, err := sims[0].Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(caps[0], caps[1]) {
			t.Errorf("%s: running the simulator changed its earlier capture", tm.name)
		}
	}
}

// TestCoreWarmTopologyInvariance proves the per-core sharing key sound
// to leave the topology out: a core's warm state is deep-equal on the
// paper's single lumped core, on a 2-core and a 4-core die and at grid
// resolutions 32 and 64, whatever its neighbours run and whichever core
// index it sits on.
func TestCoreWarmTopologyInvariance(t *testing.T) {
	gcc, v2 := specThread(t, "gcc"), variantThread(t, 2)
	var want *CoreWarm
	for _, die := range []struct {
		cores, gridN, core int
	}{{1, 0, 0}, {2, 32, 1}, {2, 64, 1}, {4, 32, 3}, {4, 64, 2}} {
		cfg := config.Default()
		cfg.Topology = config.Topology{Cores: die.cores, Solver: config.SolverGrid, GridN: die.gridN}
		if die.cores == 1 {
			cfg.Topology = config.Default().Topology
		}
		threads := make([][]Thread, die.cores)
		for c := range threads {
			threads[c] = []Thread{v2}
		}
		threads[die.core] = []Thread{gcc}
		m, err := NewMulti(cfg, threads, Options{WarmupCycles: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WarmCore(die.core); err != nil {
			t.Fatal(err)
		}
		got := m.CaptureCore(die.core)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-core die, grid %d, core %d: warm state differs", die.cores, die.gridN, die.core)
		}
	}
}

// TestMultiLazyAnchor: construction leaves the die unanchored; the
// first Solver call anchors it above ambient, a cold warmup anchors it
// once from ambient, and restoring the die's state skips the anchor.
func TestMultiLazyAnchor(t *testing.T) {
	cfg := multiCfg(2)
	threads := attackVictimThreads(t)
	a, err := NewMulti(cfg, threads, Options{WarmupCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if a.anchored {
		t.Fatal("NewMulti anchored the die")
	}
	amb := cfg.Thermal.AmbientK
	for _, temp := range a.Solver().State().Temps {
		if temp <= amb {
			t.Fatalf("anchored die holds a node at %v K, not above ambient %v K", temp, amb)
		}
	}

	// A cold warmup leaves the die anchored once, from ambient.
	_, die := warmParts(t, cfg, threads, Options{WarmupCycles: 50_000})
	ref, err := thermal.NewSolver(cfg.Topology, cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	ref.InitSteadyCores(a.steadyPowers())
	if !reflect.DeepEqual(ref.State(), die) {
		t.Error("the post-warmup die is not the die anchored once from ambient")
	}
	c, err := NewMulti(cfg, threads, Options{WarmupCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FinishWarmup(&die); err != nil {
		t.Fatal(err)
	}
	if !c.anchored || !reflect.DeepEqual(c.Solver().State(), die) {
		t.Error("a restored die was re-anchored")
	}
}

func TestMultiWarmErrors(t *testing.T) {
	cfg := multiCfg(2)
	threads := attackVictimThreads(t)
	parts, _ := warmParts(t, cfg, threads, Options{WarmupCycles: 20_000})
	other := cfg
	other.Thermal.ConvectionRes *= 2
	otherParts, _ := warmParts(t, other, threads, Options{WarmupCycles: 20_000})
	m, err := NewMulti(cfg, threads, Options{Scope: dtm.ScopeChip, WarmupCycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreCore(0, parts[1]); err == nil {
		t.Error("restoring another program's warm state should fail")
	}
	if err := m.RestoreCore(2, parts[0]); err == nil {
		t.Error("restoring past the last core should fail")
	}
	if err := m.RestoreCore(0, nil); err == nil {
		t.Error("restoring a nil warm state should fail")
	}
	if err := m.RestoreCore(0, otherParts[0]); err == nil || !strings.Contains(err.Error(), "warm-config") {
		t.Errorf("restoring warm state of another convection resistance: %v, want a warm-config mismatch", err)
	}
	longer, err := NewMulti(cfg, threads, Options{WarmupCycles: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := longer.RestoreCore(0, parts[0]); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("restoring a 20000-cycle warmup into a 40000-cycle one: %v, want a warmup mismatch", err)
	}
	if err := m.RestoreCore(0, parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishWarmup(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishWarmup(nil); err == nil {
		t.Error("a second FinishWarmup should fail")
	}
	if err := m.WarmCore(1); err == nil {
		t.Error("WarmCore after FinishWarmup should fail")
	}
}
