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

// EngineState is the serializable state of the sedation engine: which
// threads are sedated for which resource, the hot flags and
// re-examination deadlines, the absolute-ablation timers, and the event
// counters. The wiring (monitor, core control, report sink) stays with
// the live engine.
type EngineState struct {
	SedatedFor      [power.NumUnits][]int
	Sedations       []int
	Hot             [power.NumUnits]bool
	ReexamineAt     [power.NumUnits]int64
	AbsSedatedUntil []int64
	Stats           Stats
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

// Snapshot returns a deep copy of the engine's state.
func (e *Engine) Snapshot() EngineState {
	st := EngineState{
		Sedations:       append([]int(nil), e.sedations...),
		Hot:             e.hot,
		ReexamineAt:     e.reexamineAt,
		AbsSedatedUntil: append([]int64(nil), e.absSedatedUntil...),
		Stats:           e.stats,
	}
	for u := range st.SedatedFor {
		if len(e.sedatedFor[u]) > 0 {
			st.SedatedFor[u] = append([]int(nil), e.sedatedFor[u]...)
		}
	}
	return st
}

// Restore loads st into e. The context count must match. It restores
// only the engine's own fields: the side effects of past sedations
// (fetch gating in the core, frozen monitor averages) live in those
// components' own states and are restored with them.
func (e *Engine) Restore(st EngineState) error {
	n := len(e.sedations)
	if len(st.Sedations) != n || len(st.AbsSedatedUntil) != n {
		return fmt.Errorf("core: engine state has %d/%d contexts, want %d",
			len(st.Sedations), len(st.AbsSedatedUntil), n)
	}
	for u := range e.sedatedFor {
		e.sedatedFor[u] = append(e.sedatedFor[u][:0], st.SedatedFor[u]...)
	}
	copy(e.sedations, st.Sedations)
	e.hot = st.Hot
	e.reexamineAt = st.ReexamineAt
	copy(e.absSedatedUntil, st.AbsSedatedUntil)
	e.stats = st.Stats
	return nil
}
