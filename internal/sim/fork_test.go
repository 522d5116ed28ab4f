package sim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// forkSim builds machine m under o with every observation channel on.
func forkSim(t *testing.T, m testMachine, o Options, ff bool) *Simulator {
	t.Helper()
	o.WarmupCycles = 60_000
	o.TraceTemps = true
	o.CollectEvents = true
	o.DisableFastForward = !ff
	return m.build(t, o)
}

// forkRef runs a fresh simulator straight through total cycles — the
// cold reference every forked run must reproduce exactly.
func forkRef(t *testing.T, m testMachine, o Options, ff bool, total int64) *Result {
	t.Helper()
	r, err := forkSim(t, m, o, ff).RunCycles(total)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// soloSim is forkSim on the single-core machine under one policy.
func soloSim(t *testing.T, policy dtm.Kind, ff bool) *Simulator {
	t.Helper()
	return forkSim(t, testMachines(t)[0], Options{Policy: policy}, ff)
}

// FuzzForkBoundary is the mid-run fork hook's acceptance fuzz: pause an
// open quantum at a fuzz-chosen sensor boundary, snapshot, fork a child
// from the in-memory state, and require the child's Result — and the
// unforked original's — to be deep-equal to a cold straight-through
// run. Fuzzed over the split point, the DTM scope and policy, the
// fast-forward switch, and the machine (one core, or a 2-core die).
func FuzzForkBoundary(f *testing.F) {
	f.Add(uint8(3), uint8(1), true, false)
	f.Add(uint8(0), uint8(4), false, false)
	f.Add(uint8(7), uint8(2), true, false)
	f.Add(uint8(5), uint8(0), false, false)
	f.Add(uint8(2), uint8(4), true, true)  // 2-core die, per-core sedation
	f.Add(uint8(6), uint8(5), false, true) // 2-core die, chip scope
	f.Fuzz(func(t *testing.T, splitSel, policySel uint8, ff, die bool) {
		m := testMachines(t)[0]
		if die {
			m = testMachines(t)[1]
		}
		sensor := int64(m.cfg.Thermal.SensorIntervalCycles)
		// Fork after 1..8 sensor intervals of a 10-interval quantum.
		split := (1 + int64(splitSel)%8) * sensor
		total := 10 * sensor
		o := scopeOptions()[int(policySel)%len(scopeOptions())]
		label := m.name + "/" + string(o.Policy)

		want := forkRef(t, m, o, ff, total)

		orig := forkSim(t, m, o, ff)
		if err := orig.BeginRun(total); err != nil {
			t.Fatal(err)
		}
		if done, err := orig.StepRun(split); err != nil || done {
			t.Fatalf("StepRun(%d) = done %v, err %v", split, done, err)
		}
		if done, q := orig.RunProgress(); done != split || q != total {
			t.Fatalf("RunProgress = %d/%d, want %d/%d", done, q, split, total)
		}
		ms, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if ms.Quantum == nil {
			t.Fatal("mid-quantum snapshot has no Quantum state")
		}

		child := forkSim(t, m, o, ff)
		if err := child.Restore(ms); err != nil {
			t.Fatal(err)
		}
		if done, q := child.RunProgress(); done != split || q != total {
			t.Fatalf("child RunProgress = %d/%d, want %d/%d", done, q, split, total)
		}
		finish := func(s *Simulator) *Result {
			if done, err := s.StepRun(total); err != nil || !done {
				t.Fatalf("StepRun to end = done %v, err %v", done, err)
			}
			r, err := s.FinishRun()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		childRes := finish(child)
		origRes := finish(orig)
		if !reflect.DeepEqual(childRes, want) {
			t.Errorf("%s ff=%v split %d: forked child diverges from cold run", label, ff, split)
		}
		if !reflect.DeepEqual(origRes, want) {
			t.Errorf("%s ff=%v split %d: unforked original diverges from cold run", label, ff, split)
		}
	})
}

// TestForkChildMutationDoesNotAlias is the aliasing regression test:
// running (mutating) one forked child must leave the parent snapshot
// byte-identical and a sibling child's run unaffected.
func TestForkChildMutationDoesNotAlias(t *testing.T) {
	const policy = dtm.SelectiveSedation
	solo := testMachines(t)[0]
	sensor := int64(solo.cfg.Thermal.SensorIntervalCycles)
	split, total := 4*sensor, 10*sensor

	want := forkRef(t, solo, Options{Policy: policy}, true, total)

	parent := soloSim(t, policy, true)
	if err := parent.BeginRun(total); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.StepRun(split); err != nil {
		t.Fatal(err)
	}
	ms, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := ms.Clone()

	// Child A restores and runs to completion — every mutation it makes
	// must land in its own copies, never in ms.
	childA := soloSim(t, policy, true)
	if err := childA.Restore(ms); err != nil {
		t.Fatal(err)
	}
	if _, err := childA.StepRun(total); err != nil {
		t.Fatal(err)
	}
	resA, err := childA.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, before) {
		t.Fatal("running a forked child mutated the parent snapshot")
	}

	// A sibling forked from the same (supposedly untouched) state must
	// reproduce the cold run too.
	childB := soloSim(t, policy, true)
	if err := childB.Restore(ms); err != nil {
		t.Fatal(err)
	}
	if _, err := childB.StepRun(total); err != nil {
		t.Fatal(err)
	}
	resB, err := childB.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"A": resA, "B": resB} {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("child %s diverges from the cold run", name)
		}
	}

	// The parent itself must also be unaffected by its children.
	if _, err := parent.StepRun(total); err != nil {
		t.Fatal(err)
	}
	resP, err := parent.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resP, want) {
		t.Error("parent diverges from the cold run after children ran")
	}
}

// TestMachineStateCloneIsDeep: the in-memory no-gob clone path must be
// as isolating as a gob round-trip, on the single core.
func TestMachineStateCloneIsDeep(t *testing.T) { checkCloneIsDeep(t, testMachines(t)[0]) }

// TestMultiCloneIsDeep is TestMachineStateCloneIsDeep on the 2-core die.
func TestMultiCloneIsDeep(t *testing.T) { checkCloneIsDeep(t, testMachines(t)[1]) }

// checkCloneIsDeep pokes representative slice-backed fields of a clone
// of m's mid-quantum snapshot, under both scopes, and checks the
// original never moves.
func checkCloneIsDeep(t *testing.T, m testMachine) {
	t.Helper()
	for _, o := range []Options{{Policy: dtm.SelectiveSedation}, {Scope: dtm.ScopeChip}} {
		sensor := int64(m.cfg.Thermal.SensorIntervalCycles)
		s := forkSim(t, m, o, true)
		if err := s.BeginRun(10 * sensor); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepRun(3 * sensor); err != nil {
			t.Fatal(err)
		}
		ms, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		c := ms.Clone()
		if !reflect.DeepEqual(c, ms) {
			t.Fatalf("%s: clone is not equal to its source", m.name)
		}
		before := ms.Clone()

		// Mutate nested state across every subsystem of the clone.
		c.Solver.Temps[0] += 100
		for i := range c.Cores {
			cs := &c.Cores[i]
			cs.Monitor.EWMA[0][0] += 7
			cs.Core.Threads[0].PC += 4
			cs.Core.Stats[0].Committed += 9
			cs.Core.Act.PerThread[0][0] += 3
			cs.Core.Hier.L1D.Tags[0] ^= 0xff
			if p := cs.Core.Threads[0].Pred; p != nil && len(p.Bimodal) > 0 {
				p.Bimodal[0] ^= 1
			}
			if cs.Engine != nil {
				cs.Engine.AbsSedatedUntil[0] += 5
			}
		}
		if c.Chip != nil {
			c.Chip.StopGo.Engagements = 99
		}
		if c.Quantum == nil {
			t.Fatalf("%s: mid-quantum snapshot has no Quantum state", m.name)
		}
		for i := range c.Quantum.Cores {
			cq := &c.Quantum.Cores[i]
			cq.StartStats[0].Committed += 11
			cq.StartRF[0] += 123456
			cq.LastCommitted[0] += 2
			cq.RFTrace[0] += 1.5
		}

		if !reflect.DeepEqual(ms, before) {
			t.Fatalf("%s/%s: mutating a clone's nested state reached the original", m.name, o.Scope)
		}
	}
}

// TestMidQuantumSnapshotGobRoundTrip: a mid-quantum snapshot of the
// single core survives the disk encoding.
func TestMidQuantumSnapshotGobRoundTrip(t *testing.T) { checkGobRoundTrip(t, testMachines(t)[0]) }

// TestMultiSnapshotGobRoundTrip is TestMidQuantumSnapshotGobRoundTrip
// on the 2-core die.
func TestMultiSnapshotGobRoundTrip(t *testing.T) { checkGobRoundTrip(t, testMachines(t)[1]) }

// checkGobRoundTrip writes and reads back a mid-quantum snapshot of m
// under DVS, sedation and chip scope: its die-level sections decode
// deep-equal and a decoded copy resumes to the cold run's Result.
func checkGobRoundTrip(t *testing.T, m testMachine) {
	t.Helper()
	for _, o := range []Options{{Policy: dtm.DVS}, {Policy: dtm.SelectiveSedation}, {Scope: dtm.ScopeChip}} {
		label := m.name + "/" + string(o.Policy) + string(o.Scope)
		sensor := int64(m.cfg.Thermal.SensorIntervalCycles)
		split, total := 5*sensor, 10*sensor

		want := forkRef(t, m, o, true, total)

		parent := forkSim(t, m, o, true)
		if err := parent.BeginRun(total); err != nil {
			t.Fatal(err)
		}
		if _, err := parent.StepRun(split); err != nil {
			t.Fatal(err)
		}
		ms, err := parent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := WriteState(&buf, ms); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadState(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// The die-level sections round-trip exactly (cpu.CoreState is
		// only continuation-equivalent through gob).
		if !reflect.DeepEqual(ms.Solver, decoded.Solver) || !reflect.DeepEqual(ms.Chip, decoded.Chip) ||
			!reflect.DeepEqual(ms.Quantum, decoded.Quantum) || ms.Scope != decoded.Scope {
			t.Errorf("%s: die-level snapshot sections not deep-equal after gob round trip", label)
		}

		child := forkSim(t, m, o, true)
		if err := child.Restore(decoded); err != nil {
			t.Fatal(err)
		}
		if _, err := child.StepRun(total); err != nil {
			t.Fatal(err)
		}
		got, err := child.FinishRun()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: gob-round-tripped mid-quantum snapshot diverges from the cold run", label)
		}
	}
}

// TestBeginStepFinishMisuse locks in the quantum API's error paths.
func TestBeginStepFinishMisuse(t *testing.T) {
	s := soloSim(t, dtm.None, true)
	if _, err := s.StepRun(1000); err == nil {
		t.Error("StepRun before BeginRun should fail")
	}
	if _, err := s.FinishRun(); err == nil {
		t.Error("FinishRun before BeginRun should fail")
	}
	if err := s.BeginRun(0); err == nil {
		t.Error("BeginRun(0) should fail")
	}
	if err := s.BeginRun(int64(s.cfg.Thermal.SensorIntervalCycles)); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginRun(1000); err == nil {
		t.Error("nested BeginRun should fail")
	}
	if done, q := s.RunProgress(); done != 0 || q != int64(s.cfg.Thermal.SensorIntervalCycles) {
		t.Errorf("RunProgress = %d/%d", done, q)
	}
	if done, err := s.StepRun(1 << 40); err != nil || !done {
		t.Fatalf("StepRun clamp = done %v, err %v", done, err)
	}
	if _, err := s.FinishRun(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FinishRun(); err == nil {
		t.Error("double FinishRun should fail")
	}
}
