package power

import "fmt"

// ActivityState is the serializable state of the activity counters.
type ActivityState struct {
	Total     [NumUnits]uint64
	PerThread [][NumUnits]uint64
}

// ModelState is the serializable state of the power model: the current
// supply voltage (DVS) and the per-unit interval baseline set by Prime.
// Energies, frequency, scale and leakage are static configuration and
// stay with the live model.
type ModelState struct {
	Vdd  float64
	Last [NumUnits]uint64
}

// Snapshot returns a deep copy of the counters.
func (a *Activity) Snapshot() ActivityState {
	return ActivityState{
		Total:     a.total,
		PerThread: append([][NumUnits]uint64(nil), a.perThread...),
	}
}

// Restore loads st into a. The context count must match.
func (a *Activity) Restore(st ActivityState) error {
	if len(st.PerThread) != len(a.perThread) {
		return fmt.Errorf("power: state has %d thread contexts, want %d",
			len(st.PerThread), len(a.perThread))
	}
	a.total = st.Total
	copy(a.perThread, st.PerThread)
	return nil
}

// Snapshot returns a copy of the model's mutable state.
func (m *Model) Snapshot() ModelState {
	return ModelState{Vdd: m.vdd, Last: m.last}
}

// Restore loads st into m.
func (m *Model) Restore(st ModelState) error {
	if st.Vdd <= 0 {
		return fmt.Errorf("power: restored vdd %g must be positive", st.Vdd)
	}
	m.vdd = st.Vdd
	m.last = st.Last
	return nil
}
