package sim

import (
	"reflect"
	"sync"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// corruptBase is a mid-quantum snapshot of one test machine and the
// options that rebuild a simulator it restores into.
type corruptBase struct {
	m    testMachine
	o    Options
	ms   *MachineState
	next int64 // the quantum position two sensor intervals on
}

// corruptBases holds, once built, a mid-quantum snapshot of each test
// machine: the single core under selective sedation and the 2-core die
// under the chip scope, every observation channel on.
var corruptBases struct {
	sync.Mutex
	bases []corruptBase
}

func corruptBasesFor(t *testing.T) []corruptBase {
	corruptBases.Lock()
	defer corruptBases.Unlock()
	if corruptBases.bases != nil {
		return corruptBases.bases
	}
	for i, m := range testMachines(t) {
		o := Options{Policy: dtm.SelectiveSedation}
		if i > 0 {
			o = Options{Scope: dtm.ScopeChip}
		}
		o.WarmupCycles, o.TraceTemps, o.CollectEvents = 20_000, true, true
		s := m.build(t, o)
		sensor := int64(m.cfg.Thermal.SensorIntervalCycles)
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
		corruptBases.bases = append(corruptBases.bases, corruptBase{m: m, o: o, ms: ms, next: 5 * sensor})
	}
	return corruptBases.bases
}

// corrupt walks v guided by path and changes what it reaches: at a
// struct path picks a field, at an array an element, at a slice an
// element (two path bytes) or — when its selector byte is a multiple
// of 8 — truncates it to val modulo its length; at a scalar leaf it
// stores val. A nil pointer, an empty slice, a map or an exhausted
// path ends the walk with nothing changed.
func corrupt(v reflect.Value, path []byte, val int64) {
	for {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return
			}
			v = v.Elem()
			continue
		}
		if !v.CanSet() {
			return
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(val)
			return
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(val))
			return
		case reflect.Float32, reflect.Float64:
			v.SetFloat(float64(val))
			return
		case reflect.Bool:
			v.SetBool(val&1 == 1)
			return
		}
		if len(path) == 0 {
			return
		}
		switch v.Kind() {
		case reflect.Struct:
			v = v.Field(int(path[0]) % v.NumField())
			path = path[1:]
		case reflect.Array:
			if v.Len() == 0 {
				return
			}
			v = v.Index(int(path[0]) % v.Len())
			path = path[1:]
		case reflect.Slice:
			n := v.Len()
			if n == 0 {
				return
			}
			if path[0]%8 == 0 {
				v.SetLen(int(uint64(val) % uint64(n)))
				return
			}
			if len(path) < 3 {
				return
			}
			v = v.Index((int(path[1])<<8 | int(path[2])) % n)
			path = path[3:]
		default:
			return
		}
	}
}

// FuzzRestoreCorrupt feeds Restore mid-quantum snapshots with one
// fuzz-chosen leaf set to a fuzzed value or one slice truncated — the
// shape of a damaged or hostile snapshot arriving over PUT /v1/warm or
// from a -snapshot-in or warm-cache file — and runs two sensor
// intervals past any snapshot Restore accepts. Restore must reject
// what it cannot run; nothing may panic.
func FuzzRestoreCorrupt(f *testing.F) {
	// Paths name struct fields by index: MachineState.Cores is field 7,
	// Solver 8, Quantum 11; CoreState.Core is 0; cpu.CoreState.Entries
	// 2, Free 3, DispatchRR 12, Threads 17; EntryState.DstReg 22;
	// ThreadState.PC 3; QuantumState.Cores 10. A slice step is a
	// selector byte (1: an element, 0: truncate) and, for an element,
	// two index bytes.
	for _, seed := range []struct {
		die  bool
		path []byte
		val  int64
	}{
		{false, []byte{7, 1, 0, 0, 0, 2, 1, 0, 1, 22}, 200}, // Cores[0].Core.Entries[1].DstReg
		{false, []byte{7, 1, 0, 0, 0, 12}, 99},              // Cores[0].Core.DispatchRR
		{false, []byte{7, 1, 0, 0, 0, 17, 1, 0, 0, 3}, -7},  // Cores[0].Core.Threads[0].PC
		{true, []byte{7, 1, 0, 1, 0, 3, 0}, 1},              // Cores[1].Core.Free truncated
		{true, []byte{11, 10, 0}, 1},                        // Quantum.Cores truncated
		{true, []byte{8, 1, 0}, 3},                          // Solver.Temps truncated
	} {
		f.Add(seed.die, seed.path, seed.val)
	}
	f.Fuzz(func(t *testing.T, die bool, path []byte, val int64) {
		bases := corruptBasesFor(t)
		b := bases[0]
		if die {
			b = bases[1]
		}
		ms := b.ms.Clone()
		corrupt(reflect.ValueOf(ms), path, val)
		s, err := NewMulti(b.m.cfg, b.m.threads, b.o)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(ms); err != nil {
			return
		}
		if s.qr == nil {
			return // the snapshot lost its quantum; nothing to resume
		}
		if _, err := s.StepRun(b.next); err != nil {
			return
		}
		s.FinishRun()
	})
}
