package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// corrupt walks v guided by path and changes what it reaches: at a
// struct path picks a field, at an array an element, at a slice an
// element (two path bytes) or — when its selector byte is a multiple
// of 8 — truncates it to val modulo its length; at a scalar leaf it
// stores val. A nil pointer, an empty slice, a map or an exhausted
// path ends the walk with nothing changed. It returns what it changed
// (a leaf such as "Core.Core.Core.Cycle", or a slice with " truncated"
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

// fuzzSeed is one seed input of FuzzRestoreWarm and the leaf corrupt
// changes with it.
type fuzzSeed struct {
	die  bool
	path []byte
	val  int64
	leaf string
}

// TestFuzzSeedTargets pins what each seed of FuzzRestoreWarm, and
// each committed corpus entry, changes: corrupt picks fields by index,
// so a field added to or removed from a state struct re-aims every
// path through it, and a re-aimed seed would otherwise keep passing
// while it tests another leaf, or nothing.
func TestFuzzSeedTargets(t *testing.T) {
	core, die := encodedWarmRecords(t)
	record := func(isDie bool) *WarmRecord {
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
	check := func(what string, seed fuzzSeed) {
		t.Helper()
		got := record(seed.die)
		if leaf := corrupt(reflect.ValueOf(got), seed.path, seed.val); leaf != seed.leaf {
			t.Errorf("%s %v: changes %q, want %q", what, seed.path, leaf, seed.leaf)
		} else if reflect.DeepEqual(got, record(seed.die)) {
			t.Errorf("%s %v: %s already holds %d", what, seed.path, leaf, seed.val)
		}
	}
	for _, seed := range warmSeeds {
		check("FuzzRestoreWarm seed", seed)
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzRestoreWarm")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(warmCorpus) {
		t.Errorf("%d corpus entries in %s, warmCorpus names %d", len(entries), dir, len(warmCorpus))
	}
	for _, e := range entries {
		leaf, ok := warmCorpus[e.Name()]
		if !ok {
			t.Errorf("corpus entry %s: add the leaf it changes to warmCorpus", e.Name())
			continue
		}
		seed := readCorpusEntry(t, filepath.Join(dir, e.Name()))
		seed.leaf = leaf
		check("corpus entry "+e.Name(), seed)
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
