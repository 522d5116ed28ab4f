package core

import (
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// MonitorState is the serializable state of the sedation monitor: the
// per-thread sample baselines, weighted-average registers, flat-average
// baselines, and freeze flags.
type MonitorState struct {
	Last     [][power.NumUnits]uint64
	EWMA     [][power.NumUnits]int64
	FlatBase [][power.NumUnits]uint64
	Frozen   []bool
}

// Snapshot returns a deep copy of the monitor's state.
func (m *Monitor) Snapshot() MonitorState {
	return MonitorState{
		Last:     append([][power.NumUnits]uint64(nil), m.last...),
		EWMA:     append([][power.NumUnits]int64(nil), m.ewma...),
		FlatBase: append([][power.NumUnits]uint64(nil), m.flatBase...),
		Frozen:   append([]bool(nil), m.frozen...),
	}
}

// Restore loads st into m. The context count must match.
func (m *Monitor) Restore(st MonitorState) error {
	n := m.nthreads
	if len(st.Last) != n || len(st.EWMA) != n || len(st.FlatBase) != n || len(st.Frozen) != n {
		return fmt.Errorf("core: monitor state has %d/%d/%d/%d contexts, want %d",
			len(st.Last), len(st.EWMA), len(st.FlatBase), len(st.Frozen), n)
	}
	copy(m.last, st.Last)
	copy(m.ewma, st.EWMA)
	copy(m.flatBase, st.FlatBase)
	copy(m.frozen, st.Frozen)
	return nil
}
