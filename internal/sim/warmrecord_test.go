package sim

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// warmRecords builds, once, the two encoded warm records the tests
// below start from: the single core's (crafty + Variant2) and the
// 2-core grid die's.
var warmRecords struct {
	sync.Mutex
	core, die []byte
}

// warmRecordOptions is the warmup the records are built with.
var warmRecordOptions = Options{Policy: dtm.None, WarmupCycles: 20_000}

func encodedWarmRecords(t *testing.T) (core, die []byte) {
	warmRecords.Lock()
	defer warmRecords.Unlock()
	if warmRecords.core != nil {
		return warmRecords.core, warmRecords.die
	}
	ms := testMachines(t)
	s := ms[0].build(t, warmRecordOptions)
	if err := s.WarmCore(0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWarm(&buf, &WarmRecord{Version: StateVersion, Core: s.CaptureCore(0)}); err != nil {
		t.Fatal(err)
	}
	warmRecords.core = bytes.Clone(buf.Bytes())
	st := ms[1].build(t, warmRecordOptions).Solver().State()
	buf.Reset()
	if err := WriteWarm(&buf, &WarmRecord{Version: StateVersion, Die: &st}); err != nil {
		t.Fatal(err)
	}
	warmRecords.die = bytes.Clone(buf.Bytes())
	return warmRecords.core, warmRecords.die
}

// TestWarmRecordRoundTrip: a core record and a die record survive the
// file form, and a restored core record reproduces the cold warmup's
// quantum exactly.
func TestWarmRecordRoundTrip(t *testing.T) {
	core, die := encodedWarmRecords(t)
	for i, enc := range [][]byte{core, die} {
		m := testMachines(t)[i]
		want, err := ReadWarm(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "k.warm")
		if err := WriteWarmFile(path, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadWarmFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: warm record changed through its file", m.name)
		}
	}

	// The single core restored from its record measures exactly the
	// cold run's quantum.
	m := testMachines(t)[0]
	cold := m.build(t, Options{Policy: dtm.StopAndGo, WarmupCycles: warmRecordOptions.WarmupCycles})
	want, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := ReadWarm(bytes.NewReader(core))
	s := m.build(t, Options{Policy: dtm.StopAndGo, WarmupCycles: warmRecordOptions.WarmupCycles})
	if err := s.RestoreCore(0, rec.Core); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishWarmup(nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("quantum restored from a core record differs from the cold run")
	}
}

// TestReadWarmRejects: ReadWarm refuses another file kind, another
// format version, and a record holding both parts or neither.
func TestReadWarmRejects(t *testing.T) {
	core, die := encodedWarmRecords(t)
	c, _ := ReadWarm(bytes.NewReader(core))
	d, _ := ReadWarm(bytes.NewReader(die))
	for _, tc := range []struct {
		name string
		rec  *WarmRecord
		want string
	}{
		{"old version", &WarmRecord{Version: StateVersion - 1, Core: c.Core}, "format"},
		{"both parts", &WarmRecord{Version: StateVersion, Core: c.Core, Die: d.Die}, "one core or one die"},
		{"neither part", &WarmRecord{Version: StateVersion}, "one core or one die"},
	} {
		var buf bytes.Buffer
		if err := WriteWarm(&buf, tc.rec); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadWarm(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadWarm error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := ReadWarm(bytes.NewReader([]byte("not a warm record"))); err == nil {
		t.Error("ReadWarm accepted input that is not a warm record")
	}
	if _, err := ReadWarm(bytes.NewReader(core[:len(core)/2])); err == nil {
		t.Error("ReadWarm accepted a torn record")
	}
}

// warmSeeds seed FuzzRestoreWarm. Paths name struct fields by index
// (see corrupt): WarmRecord.Version is field 0, Core 1, Die 2;
// CoreWarm.Core is 1, Model 2, Monitor 3, WarmDigest 4, WarmupCycles 5
// (each appended last so the paths below kept their fields);
// cpu.CompactState.Core is 0, Hier 1, Mem 2; cpu.CoreState.Entries is
// 2, Free 3, DispatchRR 12, Threads 16; EntryState.DstReg 22;
// ThreadState.PC 2; mem.CompactHierarchy.L1D is 1, Banks 3;
// mem.CompactCache.Index is 1; mem.CompactMemory.Ends 1;
// SolverState.Temps 1. A slice step is a selector byte (1: an element,
// 0: truncate) and, for an element, two index bytes.
// TestFuzzSeedTargets checks each seed still reaches its leaf.
var warmSeeds = []fuzzSeed{
	{false, []byte{1, 1, 0, 2, 1, 0, 1, 22}, 200, "Core.Core.Core.Entries[1].DstReg"},
	{false, []byte{1, 1, 0, 12}, 99, "Core.Core.Core.DispatchRR"},
	{false, []byte{1, 1, 1, 1, 1, 1, 0, 0}, 1_000_000, "Core.Core.Hier.L1D.Index[0]"},
	{false, []byte{1, 1, 1, 3, 0}, 0, "Core.Core.Hier.Banks truncated"},
	{false, []byte{1, 1, 2, 1, 0, 0, 1, 1, 0, 0}, -5, "Core.Core.Mem[0].Ends[0]"},
	{false, []byte{0}, 3, "Version"},
	{true, []byte{2, 1, 0}, 3, "Die.Temps truncated"},
	{true, []byte{2, 1, 1, 0, 9}, 1 << 50, "Die.Temps[9]"},
	{false, []byte{1, 1, 0, 16, 1, 0, 0, 2}, -7, "Core.Core.Core.Threads[0].PC"},
	{false, []byte{1, 1, 0, 3, 0}, 1, "Core.Core.Core.Free truncated"},
	{false, []byte{1, 5}, 40_000, "Core.WarmupCycles"},
}

// warmCorpus names the leaf each committed FuzzRestoreWarm corpus
// entry (a crasher the fuzzer found) changes.
var warmCorpus = map[string]string{
	"44b7091b548a86bb": "Core.Core.Core.Threads[0].ListHead",
	"8609b4917dbde9c4": "Core.Core.Core.Cycle",
}

// FuzzRestoreWarm feeds the warm-record path PUT /v1/warm reaches with
// one fuzz-chosen leaf set to a fuzzed value or one slice truncated: a
// core record (crafty + Variant2) or a die record (the 2-core grid die)
// is decoded, damaged, encoded and decoded again, restored with
// RestoreCore or FinishWarmup, and run for two sensor intervals. Each
// case must either return an error or run; nothing may panic or hang.
func FuzzRestoreWarm(f *testing.F) {
	for _, seed := range warmSeeds {
		f.Add(seed.die, seed.path, seed.val)
	}
	f.Fuzz(func(t *testing.T, die bool, path []byte, val int64) {
		core, dieEnc := encodedWarmRecords(t)
		enc, m := core, testMachines(t)[0]
		if die {
			enc, m = dieEnc, testMachines(t)[1]
		}
		rec, err := ReadWarm(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(reflect.ValueOf(rec), path, val)
		var buf bytes.Buffer
		if err := WriteWarm(&buf, rec); err != nil {
			return
		}
		if rec, err = ReadWarm(&buf); err != nil {
			return
		}
		o := Options{Policy: dtm.SelectiveSedation, WarmupCycles: warmRecordOptions.WarmupCycles,
			CollectSamples: true, CollectEvents: true}
		s, err := NewMulti(m.cfg, m.threads, o)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Core != nil {
			if err := s.RestoreCore(0, rec.Core); err != nil {
				return
			}
		}
		if err := s.FinishWarmup(rec.Die); err != nil {
			return
		}
		s.RunCycles(2 * int64(m.cfg.Thermal.SensorIntervalCycles))
	})
}
