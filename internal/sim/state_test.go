package sim

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// stateOptions is the option set the snapshot tests run under: every
// optional observation channel on, so divergence anywhere shows up in
// the deep-equal.
func stateOptions(policy dtm.Kind) Options {
	return Options{
		Policy:        policy,
		WarmupCycles:  60_000,
		TraceTemps:    true,
		CollectEvents: true,
	}
}

// TestRestoreEquivalence locks in the tentpole invariant: snapshot
// mid-quantum (after a full quantum has run), restore into a fresh
// simulator, continue — and the continuation must be deep-equal to the
// original simulator continuing straight through. Checked on both
// machines under every scope and policy, with the fast-forward both
// enabled and disabled (the same discipline as
// TestFastForwardEquivalence).
func TestRestoreEquivalence(t *testing.T) {
	const quantum = 120_000
	machines := testMachines(t)
	for _, o := range scopeOptions() {
		for _, ff := range []bool{true, false} {
			name := string(o.Policy) + "/ff=on"
			if !ff {
				name = string(o.Policy) + "/ff=off"
			}
			t.Run(name, func(t *testing.T) {
				for _, m := range machines {
					a := forkSim(t, m, o, ff)
					if _, err := a.RunCycles(quantum); err != nil {
						t.Fatal(err)
					}
					if err := a.BeginRun(quantum); err != nil {
						t.Fatal(err)
					}
					if _, err := a.StepRun(quantum / 2); err != nil {
						t.Fatal(err)
					}
					ms, err := a.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := a.StepRun(quantum); err != nil {
						t.Fatal(err)
					}
					straight, err := a.FinishRun()
					if err != nil {
						t.Fatal(err)
					}

					b := forkSim(t, m, o, ff)
					if err := b.Restore(ms); err != nil {
						t.Fatal(err)
					}
					if _, err := b.StepRun(quantum); err != nil {
						t.Fatal(err)
					}
					restored, err := b.FinishRun()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(straight, restored) {
						t.Errorf("%s: continuations diverge:\nstraight: %+v\nrestored: %+v", m.name, straight, restored)
					}
				}
			})
		}
	}
}

// TestSnapshotIsDeepCopy proves a snapshot does not alias the live
// simulator: continuing the source must leave the snapshot untouched,
// so one snapshot can seed many clones.
func TestSnapshotIsDeepCopy(t *testing.T) {
	cfg := quickCfg()
	threads := []Thread{specThread(t, "crafty"), variantThread(t, 2)}
	s, err := New(cfg, threads, stateOptions(dtm.SelectiveSedation))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCycles(100_000); err != nil {
		t.Fatal(err)
	}
	ms, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCycles(100_000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, before) {
		t.Fatal("continuing the source simulator mutated an earlier snapshot")
	}
}

// TestRestoreRoundTripsState proves restore reconstructs the exact
// state: snapshotting the restored simulator yields the original
// MachineState again.
func TestRestoreRoundTripsState(t *testing.T) {
	cfg := quickCfg()
	threads := []Thread{specThread(t, "crafty"), variantThread(t, 2)}
	a, err := New(cfg, threads, stateOptions(dtm.SelectiveSedation))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunCycles(140_000); err != nil {
		t.Fatal(err)
	}
	ms, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, threads, stateOptions(dtm.SelectiveSedation))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ms); err != nil {
		t.Fatal(err)
	}
	ms2, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, ms2) {
		t.Fatal("snapshot of restored simulator differs from the original snapshot")
	}
}

// TestWarmupSnapshotEquivalence proves warmup-snapshot reuse is exact
// on both machines for every scope and policy: restoring a
// policy-agnostic warmup snapshot (built under dtm.None) into a fresh
// simulator must reproduce, deep-equally, the result of that simulator
// running its own warmup.
func TestWarmupSnapshotEquivalence(t *testing.T) {
	const quantum = 150_000
	machines := testMachines(t)
	warm := make([]*MachineState, len(machines))
	for i, m := range machines {
		ms, err := m.build(t, Options{Policy: dtm.None, WarmupCycles: 60_000}).WarmupSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if ms.Policy != "" || ms.Scope != "" || ms.Chip != nil {
			t.Fatalf("%s: warmup snapshot carries policy state: policy=%q scope=%q", m.name, ms.Policy, ms.Scope)
		}
		for c, cs := range ms.Cores {
			if cs.DTM != nil || cs.Engine != nil {
				t.Fatalf("%s core %d: warmup snapshot carries policy state", m.name, c)
			}
		}
		warm[i] = ms
	}

	for _, o := range scopeOptions() {
		t.Run(string(o.Policy), func(t *testing.T) {
			for i, m := range machines {
				want, err := forkSim(t, m, o, true).RunCycles(quantum)
				if err != nil {
					t.Fatal(err)
				}
				reused := forkSim(t, m, o, true)
				if err := reused.Restore(warm[i]); err != nil {
					t.Fatal(err)
				}
				got, err := reused.RunCycles(quantum)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: warmup reuse diverges from cold warmup:\ncold:   %+v\nreused: %+v", m.name, want, got)
				}
			}
		})
	}
}

// TestWarmupSnapshotAfterStart rejects snapshotting once measurement
// has begun (the state would no longer be policy-agnostic).
func TestWarmupSnapshotAfterStart(t *testing.T) {
	s, err := New(quickCfg(), []Thread{variantThread(t, 1)}, Options{Policy: dtm.None})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCycles(20_000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WarmupSnapshot(); err == nil {
		t.Fatal("WarmupSnapshot after RunCycles should fail")
	}
}

// TestRestoreRejectsMismatch covers the identity checks: wrong config,
// wrong programs, wrong policy, and a format version other than v4 —
// the v3 layout included, which is rejected, not migrated.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := quickCfg()
	threads := []Thread{specThread(t, "crafty"), variantThread(t, 2)}
	a, err := New(cfg, threads, stateOptions(dtm.StopAndGo))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	otherCfg := quickCfg()
	otherCfg.Run.QuantumCycles++
	if b, err := New(otherCfg, threads, stateOptions(dtm.StopAndGo)); err != nil {
		t.Fatal(err)
	} else if err := b.Restore(ms); err == nil {
		t.Error("restore into a different config should fail")
	}

	otherThreads := []Thread{specThread(t, "gcc"), variantThread(t, 2)}
	if b, err := New(cfg, otherThreads, stateOptions(dtm.StopAndGo)); err != nil {
		t.Fatal(err)
	} else if err := b.Restore(ms); err == nil {
		t.Error("restore into different programs should fail")
	}

	if b, err := New(cfg, threads, stateOptions(dtm.DVS)); err != nil {
		t.Fatal(err)
	} else if err := b.Restore(ms); err == nil {
		t.Error("restore of stopgo state into dvs should fail")
	}

	for _, v := range []int{3, StateVersion + 1} {
		bad := *ms
		bad.Version = v
		if b, err := New(cfg, threads, stateOptions(dtm.StopAndGo)); err != nil {
			t.Fatal(err)
		} else if err := b.Restore(&bad); err == nil {
			t.Errorf("restore of format v%d should fail", v)
		}
		var buf bytes.Buffer
		if err := WriteState(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadState(&buf); err == nil {
			t.Errorf("reading a v%d snapshot should fail", v)
		}
	}
}

// TestStateFileRoundTrip proves on-disk snapshots reproduce: write a
// warmup snapshot to disk, read it back, restore, and the continuation
// must match restoring the in-memory state.
func TestStateFileRoundTrip(t *testing.T) {
	const quantum = 100_000
	cfg := quickCfg()
	threads := []Thread{specThread(t, "crafty"), variantThread(t, 2)}
	warm, err := New(cfg, threads, Options{Policy: dtm.None, WarmupCycles: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := warm.WarmupSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := WriteStateFile(path, ms); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}

	run := func(state *MachineState) *Result {
		s, err := New(cfg, threads, stateOptions(dtm.SelectiveSedation))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(state); err != nil {
			t.Fatal(err)
		}
		r, err := s.RunCycles(quantum)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if want, got := run(ms), run(decoded); !reflect.DeepEqual(want, got) {
		t.Errorf("decoded snapshot continuation diverges:\nmemory: %+v\ndisk:   %+v", want, got)
	}

	if _, err := ReadState(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input should be rejected")
	}
}

// FuzzSnapshotContinuation snapshots at a fuzz-chosen sensor boundary
// mid-attack (with a gob round-trip thrown in) and checks continuation
// equality under a fuzz-chosen scope and policy — on the single-core
// lumped machine and, when gridSel selects it, on a 2-core grid die
// with a fuzz-chosen mesh resolution (exercising the solver's snapshot
// boundaries and the chip DTM scope).
func FuzzSnapshotContinuation(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0))
	f.Add(uint8(0), uint8(4), uint8(0))
	f.Add(uint8(7), uint8(2), uint8(0))
	f.Add(uint8(2), uint8(4), uint8(1)) // 2-core grid, per-core sedation
	f.Add(uint8(5), uint8(5), uint8(3)) // 2-core grid, chip scope
	f.Fuzz(func(t *testing.T, splitSel, policySel, gridSel uint8) {
		cfg := quickCfg()
		sensor := int64(cfg.Thermal.SensorIntervalCycles)
		// Snapshot after 1..8 sensor intervals, continue to a fixed total.
		split := (1 + int64(splitSel)%8) * sensor
		total := 10 * sensor
		o := scopeOptions()[int(policySel)%len(scopeOptions())]
		threads := [][]Thread{{specThread(t, "crafty"), variantThread(t, 2)}}
		if gridSel != 0 {
			// The attack pair split across a 2-core grid die.
			cfg.Topology = config.Topology{Cores: 2, Solver: config.SolverGrid,
				GridN: 8 * (1 + int(gridSel)%3)}
			threads = [][]Thread{{threads[0][1]}, {threads[0][0]}}
		}
		m := testMachine{name: cfg.Topology.Solver, cfg: cfg, threads: threads}

		a := forkSim(t, m, o, true)
		if _, err := a.RunCycles(split); err != nil {
			t.Fatal(err)
		}
		ms, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		straight, err := a.RunCycles(total - split)
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

		b := forkSim(t, m, o, true)
		if err := b.Restore(decoded); err != nil {
			t.Fatal(err)
		}
		restored, err := b.RunCycles(total - split)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(straight, restored) {
			t.Errorf("%s %s split %d: continuation diverges after gob round-trip", m.name, o.Policy, split)
		}
	})
}
