package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// corruptBase is a mid-quantum snapshot of one test machine, encoded
// once so each input decodes a fresh copy to corrupt, and the options
// that rebuild a simulator it restores into.
type corruptBase struct {
	m    testMachine
	o    Options
	enc  []byte
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
		var buf bytes.Buffer
		if err := WriteState(&buf, ms); err != nil {
			t.Fatal(err)
		}
		corruptBases.bases = append(corruptBases.bases, corruptBase{m: m, o: o, enc: buf.Bytes(), next: 5 * sensor})
	}
	return corruptBases.bases
}

// corrupt walks v guided by path and changes what it reaches: at a
// struct path picks a field, at an array an element, at a slice an
// element (two path bytes) or — when its selector byte is a multiple
// of 8 — truncates it to val modulo its length; at a scalar leaf it
// stores val. A nil pointer, an empty slice, a map or an exhausted
// path ends the walk with nothing changed. It returns what it changed
// (a leaf such as "Cores[0].Core.Cycle", or a slice with " truncated"
// appended), or "" when it changed nothing.
func corrupt(v reflect.Value, path []byte, val int64) string {
	name := ""
	for {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return ""
			}
			v = v.Elem()
			continue
		}
		if !v.CanSet() {
			return ""
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(val)
			return name
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(val))
			return name
		case reflect.Float32, reflect.Float64:
			v.SetFloat(float64(val))
			return name
		case reflect.Bool:
			v.SetBool(val&1 == 1)
			return name
		}
		if len(path) == 0 {
			return ""
		}
		switch v.Kind() {
		case reflect.Struct:
			i := int(path[0]) % v.NumField()
			if name != "" {
				name += "."
			}
			name += v.Type().Field(i).Name
			v = v.Field(i)
			path = path[1:]
		case reflect.Array:
			if v.Len() == 0 {
				return ""
			}
			i := int(path[0]) % v.Len()
			name += fmt.Sprintf("[%d]", i)
			v = v.Index(i)
			path = path[1:]
		case reflect.Slice:
			n := v.Len()
			if n == 0 {
				return ""
			}
			if path[0]%8 == 0 {
				v.SetLen(int(uint64(val) % uint64(n)))
				return name + " truncated"
			}
			if len(path) < 3 {
				return ""
			}
			i := (int(path[1])<<8 | int(path[2])) % n
			name += fmt.Sprintf("[%d]", i)
			v = v.Index(i)
			path = path[3:]
		default:
			return ""
		}
	}
}

// fuzzSeed is one seed input of FuzzRestoreCorrupt or FuzzRestoreWarm
// and the leaf corrupt changes with it.
type fuzzSeed struct {
	die  bool
	path []byte
	val  int64
	leaf string
}

// corruptSeeds seed FuzzRestoreCorrupt. Paths name struct fields by
// index: MachineState.Cores is field 6, Solver 7, Quantum 10;
// CoreState.Core is 0; cpu.CoreState.Entries 2, Free 3, DispatchRR 12,
// Threads 17; EntryState.DstReg 22; ThreadState.PC 3;
// QuantumState.Cores 10. A slice step is a selector byte (1: an
// element, 0: truncate) and, for an element, two index bytes.
// TestFuzzSeedTargets checks each seed still reaches its leaf.
var corruptSeeds = []fuzzSeed{
	{false, []byte{6, 1, 0, 0, 0, 2, 1, 0, 1, 22}, 200, "Cores[0].Core.Entries[1].DstReg"},
	{false, []byte{6, 1, 0, 0, 0, 12}, 99, "Cores[0].Core.DispatchRR"},
	{false, []byte{6, 1, 0, 0, 0, 17, 1, 0, 0, 3}, -7, "Cores[0].Core.Threads[0].PC"},
	{true, []byte{6, 1, 0, 1, 0, 3, 0}, 1, "Cores[1].Core.Free truncated"},
	{true, []byte{10, 10, 0}, 1, "Quantum.Cores truncated"},
	{true, []byte{7, 1, 0}, 3, "Solver.Temps truncated"},
}

// corruptCorpus names the leaf each committed FuzzRestoreCorrupt
// corpus entry (a crasher the fuzzer found) changes.
var corruptCorpus = map[string]string{
	"44b7091b548a86bb": "Cores[0].Core.Threads[0].ListHead",
	"8609b4917dbde9c4": "Cores[0].Core.Cycle",
}

// FuzzRestoreCorrupt feeds Restore mid-quantum snapshots with one
// fuzz-chosen leaf set to a fuzzed value or one slice truncated — the
// shape of a damaged or hostile snapshot, and of the core state inside
// warm records arriving over PUT /v1/warm or from a -snapshot-in or
// warm-cache file (FuzzRestoreWarm fuzzes those directly) — and runs
// two sensor intervals past any snapshot Restore accepts. Restore must
// reject what it cannot run; nothing may panic.
func FuzzRestoreCorrupt(f *testing.F) {
	for _, seed := range corruptSeeds {
		f.Add(seed.die, seed.path, seed.val)
	}
	f.Fuzz(func(t *testing.T, die bool, path []byte, val int64) {
		bases := corruptBasesFor(t)
		b := bases[0]
		if die {
			b = bases[1]
		}
		ms, err := ReadState(bytes.NewReader(b.enc))
		if err != nil {
			t.Fatal(err)
		}
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

// TestFuzzSeedTargets pins what each seed of FuzzRestoreCorrupt and
// FuzzRestoreWarm, and each committed corpus entry, changes: corrupt
// picks fields by index, so a field added to or removed from a state
// struct re-aims every path through it, and a re-aimed seed would
// otherwise keep passing while it tests another leaf, or nothing.
func TestFuzzSeedTargets(t *testing.T) {
	bases := corruptBasesFor(t)
	snapshot := func(die bool) any {
		b := bases[0]
		if die {
			b = bases[1]
		}
		ms, err := ReadState(bytes.NewReader(b.enc))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	core, die := encodedWarmRecords(t)
	record := func(isDie bool) any {
		enc := core
		if isDie {
			enc = die
		}
		rec, err := ReadWarm(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	check := func(what string, seed fuzzSeed, state func(bool) any) {
		t.Helper()
		got := state(seed.die)
		if leaf := corrupt(reflect.ValueOf(got), seed.path, seed.val); leaf != seed.leaf {
			t.Errorf("%s %v: changes %q, want %q", what, seed.path, leaf, seed.leaf)
		} else if reflect.DeepEqual(got, state(seed.die)) {
			t.Errorf("%s %v: %s already holds %d", what, seed.path, leaf, seed.val)
		}
	}
	for _, seed := range corruptSeeds {
		check("FuzzRestoreCorrupt seed", seed, snapshot)
	}
	for _, seed := range warmSeeds {
		check("FuzzRestoreWarm seed", seed, record)
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzRestoreCorrupt")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(corruptCorpus) {
		t.Errorf("%d corpus entries in %s, corruptCorpus names %d", len(entries), dir, len(corruptCorpus))
	}
	for _, e := range entries {
		leaf, ok := corruptCorpus[e.Name()]
		if !ok {
			t.Errorf("corpus entry %s: add the leaf it changes to corruptCorpus", e.Name())
			continue
		}
		seed := readCorpusEntry(t, filepath.Join(dir, e.Name()))
		seed.leaf = leaf
		check("corpus entry "+e.Name(), seed, snapshot)
	}
}

// readCorpusEntry parses a (bool, []byte, int64) corpus file in the
// "go test fuzz v1" encoding.
func readCorpusEntry(t *testing.T, path string) fuzzSeed {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a (bool, []byte, int64) corpus entry", path)
	}
	arg := func(line, typ string) string {
		s, ok := strings.CutPrefix(line, typ+"(")
		if s, ok2 := strings.CutSuffix(s, ")"); ok && ok2 {
			return s
		}
		t.Fatalf("%s: %q is not a %s", path, line, typ)
		return ""
	}
	var seed fuzzSeed
	var p string
	if seed.die, err = strconv.ParseBool(arg(lines[1], "bool")); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if p, err = strconv.Unquote(arg(lines[2], "[]byte")); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if seed.val, err = strconv.ParseInt(arg(lines[3], "int64"), 10, 64); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	seed.path = []byte(p)
	return seed
}
