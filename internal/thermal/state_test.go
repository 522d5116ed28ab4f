package thermal

import (
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// TestNetworkSnapshotRestore: the lumped solver's State and SetState
// snapshot and restore the network's node temperatures — a restored
// network integrates bit-identically, the snapshot is a copy and not a
// view, and a mismatched node count is rejected.
func TestNetworkSnapshotRestore(t *testing.T) {
	th := defaultThermal()
	a := Lumped{netWith(t, th)}
	a.InitSteady(uniformPower(2))
	hot := uniformPower(1)
	hot[power.UnitIntReg] = 30
	for i := 0; i < 50; i++ {
		a.Step(hot, 5e-6)
	}
	st := a.State()

	b := Lumped{netWith(t, th)}
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	// Identical further integration must track exactly.
	for i := 0; i < 50; i++ {
		a.Step(hot, 5e-6)
		b.Step(hot, 5e-6)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("trajectories diverge after restore")
	}
	ua, ta := a.MaxUnit()
	ub, tb := b.MaxUnit()
	if ua != ub || ta != tb {
		t.Fatalf("max unit diverges: %s %.4f vs %s %.4f", ua, ta, ub, tb)
	}

	// The snapshot is a copy of the node vector, not a view.
	if st.Temps[0] == a.BlockTemp(0) && reflect.DeepEqual(st, a.State()) {
		t.Fatal("continued network still equals the snapshot — test is vacuous")
	}

	bad := SolverState{Kind: config.SolverLumped, Temps: make([]float64, len(st.Temps)+1)}
	if err := b.SetState(bad); err == nil {
		t.Error("mismatched node count should fail")
	}
}
