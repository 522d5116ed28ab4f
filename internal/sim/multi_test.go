package sim

import (
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
)

// TestMultiNeighborHeating is the physics smoke test of the attack
// channel at the simulator level: with DTM off, an attack variant on
// core 0 makes the idle-ish victim core 1 measurably hotter than the
// victim of an all-benign die.
func TestMultiNeighborHeating(t *testing.T) {
	run := func(attacker Thread) float64 {
		cfg := multiCfg(2)
		// Accelerate the thermal RC so cross-core diffusion — milliseconds
		// of physical time — fits an affordable cycle count.
		cfg.Thermal.Scale = 64
		cfg.Run.QuantumCycles = 2_000_000
		m, err := NewMulti(cfg, [][]Thread{{attacker}, {specThread(t, "gcc")}},
			Options{Scope: dtm.ScopePerCore, Policy: dtm.None, WarmupCycles: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cores[1].FinalTemps[power.UnitIntReg]
	}
	benign := run(specThread(t, "art"))
	attacked := run(variantThread(t, 2))
	t.Logf("victim final IntReg: %.3f K next to art, %.3f K next to variant2", benign, attacked)
	if attacked <= benign {
		t.Errorf("victim IntReg %.3f K next to the attacker <= %.3f K next to a benign neighbor",
			attacked, benign)
	}
}

// TestMultiRestoreRejectsMismatch: config, programs, scope, policy,
// core-count, and single-core/multi mismatches are all refused.
func TestMultiRestoreRejectsMismatch(t *testing.T) {
	cfg := multiCfg(2)
	mo := Options{Scope: dtm.ScopePerCore, Policy: dtm.StopAndGo, WarmupCycles: 20_000}
	m, err := NewMulti(cfg, attackVictimThreads(t), mo)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, build func() (*Simulator, error)) {
		t.Helper()
		other, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := other.Restore(ms); err == nil {
			t.Errorf("%s: mismatched restore accepted", name)
		}
	}
	check("different config", func() (*Simulator, error) {
		c2 := cfg
		c2.Thermal.EmergencyK += 1
		return NewMulti(c2, attackVictimThreads(t), mo)
	})
	check("different programs", func() (*Simulator, error) {
		return NewMulti(cfg, [][]Thread{{specThread(t, "art")}, {specThread(t, "gcc")}}, mo)
	})
	check("different policy", func() (*Simulator, error) {
		o2 := mo
		o2.Policy = dtm.DVS
		return NewMulti(cfg, attackVictimThreads(t), o2)
	})
	check("different scope", func() (*Simulator, error) {
		o2 := mo
		o2.Scope, o2.Policy = dtm.ScopeChip, ""
		return NewMulti(cfg, attackVictimThreads(t), o2)
	})
	check("different core count", func() (*Simulator, error) {
		c4 := multiCfg(4)
		return NewMulti(c4, [][]Thread{{variantThread(t, 2)}, {specThread(t, "gcc")},
			{specThread(t, "art")}, {specThread(t, "mcf")}}, mo)
	})

	// A die's snapshot must not restore into a single-core simulator,
	// nor a single-core snapshot into a die, nor a snapshot that lost a
	// core into the die that took it.
	solo, err := New(config.Default(), []Thread{specThread(t, "gcc")}, Options{Policy: dtm.StopAndGo})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Restore(ms); err == nil {
		t.Error("die snapshot restored into a single-core simulator")
	}
	soloState, err := solo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(soloState); err == nil {
		t.Error("single-core snapshot restored into a die")
	}
	short := ms.Clone()
	short.Cores = short.Cores[:1]
	if err := m.Restore(short); err == nil {
		t.Error("snapshot with a core missing restored")
	}
}

// TestMultiThreadGroupingDigest: the per-core programs digest keeps
// the same threads grouped differently distinct.
func TestMultiThreadGroupingDigest(t *testing.T) {
	a, b := specThread(t, "gcc"), specThread(t, "art")
	one := &Simulator{cores: []*coreSim{{threads: []Thread{a, b}}}}
	two := &Simulator{cores: []*coreSim{{threads: []Thread{a}}, {threads: []Thread{b}}}}
	if one.progsDigest() == two.progsDigest() {
		t.Error("thread grouping does not affect the digest")
	}
}

// TestMultiSedationLastThreadException: sedation on the victim core
// never sedates its solo thread (the last-thread exception), so
// cross-core heating shows up as emergencies, not as sedation.
func TestMultiSedationLastThreadException(t *testing.T) {
	cfg := multiCfg(2)
	m, err := NewMulti(cfg, attackVictimThreads(t),
		Options{Scope: dtm.ScopePerCore, Policy: dtm.SelectiveSedation, WarmupCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sed := res.Cores[1].Threads[0].Breakdown.SedationCycles; sed != 0 {
		t.Errorf("victim's solo thread sedated for %d cycles", sed)
	}
}

func TestMultiRejectsBadShapes(t *testing.T) {
	cfg := multiCfg(2)
	if _, err := NewMulti(cfg, [][]Thread{{specThread(t, "gcc")}},
		Options{}); err == nil {
		t.Error("1 thread set for 2 cores accepted")
	}
	if _, err := NewMulti(cfg, [][]Thread{{specThread(t, "gcc")}, {}},
		Options{}); err == nil {
		t.Error("empty core accepted")
	}
	if _, err := NewMulti(cfg, attackVictimThreads(t),
		Options{Scope: dtm.ScopeChip, Policy: dtm.DVS}); err == nil {
		t.Error("chip scope with a per-core policy accepted")
	}
	if _, err := NewMulti(cfg, attackVictimThreads(t),
		Options{Scope: "die"}); err == nil {
		t.Error("unknown scope accepted")
	}
	bad := cfg
	bad.Topology.Solver = config.SolverLumped
	if _, err := NewMulti(bad, attackVictimThreads(t), Options{}); err == nil {
		t.Error("2-core lumped accepted")
	}
	if _, err := NewMulti(cfg, attackVictimThreads(t), Options{Recorder: &trace.Recorder{}}); err == nil {
		t.Error("recorder on a 2-core die accepted")
	}
}

// TestMultiPowerDensityMatchesSingle: each core's power model is the
// single-core model, so a 1-core grid die reproduces the single-core
// thermal envelope to within the documented grid/lumped agreement
// bound, and reports it as one core's Result.
func TestMultiPowerDensityMatchesSingle(t *testing.T) {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 200_000
	threads := []Thread{specThread(t, "gcc")}
	opts := Options{Policy: dtm.None, WarmupCycles: 50_000}
	solo, err := New(cfg, threads, opts)
	if err != nil {
		t.Fatal(err)
	}
	soloRes, err := solo.Run()
	if err != nil {
		t.Fatal(err)
	}

	gcfg := cfg
	gcfg.Topology = config.Topology{Cores: 1, Solver: config.SolverGrid, GridN: 32}
	m, err := NewMulti(gcfg, [][]Thread{threads}, opts)
	if err != nil {
		t.Fatal(err)
	}
	gridRes, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if gridRes.Cores != nil {
		t.Errorf("1-core die returned %d per-core results", len(gridRes.Cores))
	}
	d := gridRes.PeakTemp - soloRes.PeakTemp
	if d < -3 || d > 3 {
		t.Errorf("1-core grid peak %.3f K vs lumped %.3f K: outside the 3 K agreement bound",
			gridRes.PeakTemp, soloRes.PeakTemp)
	}
	if gridRes.Threads[0].Committed != soloRes.Threads[0].Committed {
		t.Errorf("grid substrate changed committed instructions: %d vs %d",
			gridRes.Threads[0].Committed, soloRes.Threads[0].Committed)
	}
}
