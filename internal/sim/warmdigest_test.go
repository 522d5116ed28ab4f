package sim

import (
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// nudge changes one leaf value of a config by a small step in the
// given direction (+1 or -1): floats by a quarter, integers by one,
// booleans flipped, strings suffixed. It reports false for kinds it
// does not change.
func nudge(v reflect.Value, dir int) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25*float64(dir))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + int64(dir))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		return false
	}
	return true
}

// leafPaths lists every leaf field of a struct type as an index path.
func leafPaths(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		if f := t.Field(i); f.Type.Kind() == reflect.Struct {
			out = append(out, leafPaths(f.Type, path)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

// TestWarmDigestInvariance enforces config.WarmDigest's soundness. It
// finds every Config field WarmDigest ignores by mutating each leaf
// field in turn, and checks that warmup snapshots taken under the
// mutated config are deep-equal to the base one's (apart from the
// full config digest, which names the producing machine): the fields
// WarmDigest zeroes are exactly ones warmup never reads.
func TestWarmDigestInvariance(t *testing.T) {
	base := quickCfg()
	threads := []Thread{specThread(t, "crafty"), variantThread(t, 2)}
	snapshot := func(cfg config.Config) *MachineState {
		t.Helper()
		s, err := New(cfg, threads, Options{Policy: dtm.None, WarmupCycles: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := s.WarmupSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		ms.ConfigDigest = ""
		return ms
	}
	want := snapshot(base)
	var ignored []string
	for _, path := range leafPaths(reflect.TypeOf(base), nil) {
		name := reflect.TypeOf(base).FieldByIndex(path).Name
		var cfg config.Config
		valid := false
		for _, dir := range []int{1, -1} {
			cfg = base
			if !nudge(reflect.ValueOf(&cfg).Elem().FieldByIndex(path), dir) {
				break
			}
			if cfg.WarmDigest() != base.WarmDigest() {
				break
			}
			if cfg.Validate() == nil {
				valid = true
				break
			}
		}
		if cfg.WarmDigest() != base.WarmDigest() || reflect.DeepEqual(cfg, base) {
			continue // warm-keyed, or a kind nudge leaves alone
		}
		ignored = append(ignored, name)
		if !valid {
			t.Errorf("%s: no small change of this warm-digest-ignored field validates; extend nudge", name)
			continue
		}
		if !reflect.DeepEqual(snapshot(cfg), want) {
			t.Errorf("%s is ignored by WarmDigest but changes the warmup snapshot", name)
		}
	}
	// The known engine-only fields must be among those found, or the
	// search above proves nothing.
	for _, name := range []string{"UpperK", "LowerK", "ReexamineFactor", "ExpectedCoolingCycles",
		"UseFlatAverage", "AbsoluteEWMAThreshold", "QuantumCycles"} {
		found := false
		for _, n := range ignored {
			found = found || n == name
		}
		if !found {
			t.Errorf("%s not found among the fields WarmDigest ignores (%v)", name, ignored)
		}
	}
}
