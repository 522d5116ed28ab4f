package sim

import (
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// TestRunDeterminism locks in bit-for-bit reproducibility: two
// simulators built from identical config, threads, and seed must
// produce identical Result structs and snapshots — the property the
// sweep engine relies on for reproducible tables at any parallelism.
// Checked on the single core.
func TestRunDeterminism(t *testing.T) { checkDeterminism(t, 0) }

// TestMultiDeterminism is TestRunDeterminism on the 2-core die.
func TestMultiDeterminism(t *testing.T) { checkDeterminism(t, 1) }

// checkDeterminism runs testMachines' machine i twice under per-core
// sedation and under chip scope, with the programs generated afresh
// for each run, and requires deep-equal results and snapshots.
func checkDeterminism(t *testing.T, i int) {
	t.Helper()
	name := testMachines(t)[i].name
	for _, o := range []Options{
		{Policy: dtm.SelectiveSedation, WarmupCycles: 100_000, TraceTemps: true, CollectEvents: true},
		{Scope: dtm.ScopeChip, WarmupCycles: 50_000, CollectEvents: true},
	} {
		run := func() (*Result, *MachineState) {
			s := testMachines(t)[i].build(t, o)
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			ms, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return res, ms
		}
		r1, s1 := run()
		r2, s2 := run()
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s/%s: identical runs diverged:\n a = %+v\n b = %+v", name, o.Scope, r1, r2)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s/%s: identical runs produced different snapshots", name, o.Scope)
		}
	}
}
