package dtm

import "fmt"

// StopGoState is the serializable state of a stop-and-go mechanism
// (standalone policy or a safety net inside dvs/sedation).
type StopGoState struct {
	Engaged     bool
	ResumeAt    int64
	Engagements uint64
}

// State is the serializable actuation state of any built-in policy.
// Kind selects which fields are meaningful: stopgo uses StopGo, dvs
// uses StopGo+Throttled, ttdfs uses Level/PeakLevel, sedation uses
// StopGo (its safety net; the engine's state is snapshotted separately
// via core.Engine.Snapshot). The actuator side effects — the global
// stall flag, the throttle setting, the DVS supply voltage — live in
// the pipeline and power-model states and are restored with them.
type State struct {
	Kind      Kind
	StopGo    *StopGoState
	Throttled bool
	Level     int
	PeakLevel int
}

func snapshotStopGo(s *stopGo) *StopGoState {
	return &StopGoState{Engaged: s.engaged, ResumeAt: s.resumeAt, Engagements: s.Engagements}
}

func restoreStopGo(s *stopGo, st *StopGoState, kind Kind) error {
	if st == nil {
		return fmt.Errorf("dtm: %s state missing stop-and-go fields", kind)
	}
	s.engaged = st.Engaged
	s.resumeAt = st.ResumeAt
	s.Engagements = st.Engagements
	return nil
}

// Snapshot returns a policy's actuation state.
func Snapshot(p Policy) (State, error) {
	switch v := p.(type) {
	case nonePolicy:
		return State{Kind: None}, nil
	case *stopGo:
		return State{Kind: StopAndGo, StopGo: snapshotStopGo(v)}, nil
	case *dvs:
		return State{Kind: DVS, StopGo: snapshotStopGo(v.stopGo), Throttled: v.throttled}, nil
	case *ttdfs:
		return State{Kind: TTDFS, Level: v.level, PeakLevel: v.PeakLevel}, nil
	case *sedation:
		return State{Kind: SelectiveSedation, StopGo: snapshotStopGo(v.net)}, nil
	default:
		return State{}, fmt.Errorf("dtm: cannot snapshot policy type %T", p)
	}
}

// Restore loads st into p, which must be a built-in policy of the
// matching kind.
func Restore(p Policy, st State) error {
	if p.Name() != st.Kind {
		return fmt.Errorf("dtm: restoring %q state into %q policy", st.Kind, p.Name())
	}
	switch v := p.(type) {
	case nonePolicy:
		return nil
	case *stopGo:
		return restoreStopGo(v, st.StopGo, StopAndGo)
	case *dvs:
		if err := restoreStopGo(v.stopGo, st.StopGo, DVS); err != nil {
			return err
		}
		v.throttled = st.Throttled
		return nil
	case *ttdfs:
		if st.Level < 0 || st.Level > ttdfsMaxLevel || st.PeakLevel < st.Level {
			return fmt.Errorf("dtm: ttdfs level %d / peak %d invalid", st.Level, st.PeakLevel)
		}
		v.level = st.Level
		v.PeakLevel = st.PeakLevel
		return nil
	case *sedation:
		return restoreStopGo(v.net, st.StopGo, SelectiveSedation)
	default:
		return fmt.Errorf("dtm: cannot restore policy type %T", p)
	}
}
