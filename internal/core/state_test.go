package core

import (
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/power"
)

func TestMonitorSnapshotRestore(t *testing.T) {
	a, actA := newMon(t, 2)
	for i := 0; i < 300; i++ {
		actA.Add(power.UnitIntReg, 0, 2000)
		actA.Add(power.UnitIntReg, 1, 9000)
		a.Sample()
	}
	a.SetFrozen(0, true)
	st := a.Snapshot()

	b, actB := newMon(t, 2)
	if err := actB.Restore(actA.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !b.Frozen(0) || b.Frozen(1) {
		t.Fatal("freeze flags wrong after restore")
	}
	// Same further samples must move both monitors identically,
	// including the frozen thread's held average.
	for i := 0; i < 100; i++ {
		for _, act := range []*power.Activity{actA, actB} {
			act.Add(power.UnitIntReg, 0, 500)
			act.Add(power.UnitIntReg, 1, 9000)
		}
		a.Sample()
		b.Sample()
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("monitors diverge after restore")
	}
	if a.Raw(0, power.UnitIntReg) != b.Raw(0, power.UnitIntReg) {
		t.Fatal("frozen averages diverge")
	}

	if err := b.Restore(MonitorState{}); err == nil {
		t.Error("mismatched context count should fail")
	}
}
