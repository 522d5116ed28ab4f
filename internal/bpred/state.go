package bpred

import "fmt"

// PredictorState is the serializable state of any built-in predictor.
// Kind selects which fields are meaningful: "bimodal" uses Bimodal,
// "gshare" uses Gshare+History, "tournament" uses all of them. Counter
// tables are stored as raw bytes so the struct stays gob/JSON-friendly.
type PredictorState struct {
	Kind    string
	Bimodal []uint8
	Gshare  []uint8
	History uint64
	Chooser []uint8
}

// RASState is the serializable state of a return-address stack. The
// capacity is carried implicitly by len(Stack) and checked on restore.
type RASState struct {
	Stack []int32
	Top   int
	Depth int
}

func copyCounters(t []twoBit) []uint8 {
	out := make([]uint8, len(t))
	for i, c := range t {
		out[i] = uint8(c)
	}
	return out
}

func restoreCounters(dst []twoBit, src []uint8, what string) error {
	if len(src) != len(dst) {
		return fmt.Errorf("bpred: %s table length %d, want %d", what, len(src), len(dst))
	}
	for i, v := range src {
		if v > 3 {
			return fmt.Errorf("bpred: %s counter %d out of range", what, v)
		}
		dst[i] = twoBit(v)
	}
	return nil
}

// Snapshot returns a deep copy of the predictor's state. It supports
// the built-in kinds only; the snapshot never aliases live tables, so
// one snapshot can seed many independent predictors.
func Snapshot(p Predictor) (PredictorState, error) {
	switch v := p.(type) {
	case *Bimodal:
		return PredictorState{Kind: "bimodal", Bimodal: copyCounters(v.table)}, nil
	case *Gshare:
		return PredictorState{Kind: "gshare", Gshare: copyCounters(v.table), History: v.history}, nil
	case *Tournament:
		return PredictorState{
			Kind:    "tournament",
			Bimodal: copyCounters(v.bimodal.table),
			Gshare:  copyCounters(v.gshare.table),
			History: v.gshare.history,
			Chooser: copyCounters(v.chooser),
		}, nil
	default:
		return PredictorState{}, fmt.Errorf("bpred: cannot snapshot predictor type %T", p)
	}
}

// Restore loads st into p, which must be a built-in predictor of the
// matching kind and geometry. The state is copied, never aliased.
func Restore(p Predictor, st PredictorState) error {
	switch v := p.(type) {
	case *Bimodal:
		if st.Kind != "bimodal" {
			return fmt.Errorf("bpred: restoring %q state into bimodal", st.Kind)
		}
		return restoreCounters(v.table, st.Bimodal, "bimodal")
	case *Gshare:
		if st.Kind != "gshare" {
			return fmt.Errorf("bpred: restoring %q state into gshare", st.Kind)
		}
		if err := restoreCounters(v.table, st.Gshare, "gshare"); err != nil {
			return err
		}
		v.history = st.History & ((1 << v.histLen) - 1)
		return nil
	case *Tournament:
		if st.Kind != "tournament" {
			return fmt.Errorf("bpred: restoring %q state into tournament", st.Kind)
		}
		if err := restoreCounters(v.bimodal.table, st.Bimodal, "tournament/bimodal"); err != nil {
			return err
		}
		if err := restoreCounters(v.gshare.table, st.Gshare, "tournament/gshare"); err != nil {
			return err
		}
		if err := restoreCounters(v.chooser, st.Chooser, "tournament/chooser"); err != nil {
			return err
		}
		v.gshare.history = st.History & ((1 << v.gshare.histLen) - 1)
		return nil
	default:
		return fmt.Errorf("bpred: cannot restore predictor type %T", p)
	}
}

// Snapshot returns a deep copy of the stack's state.
func (r *RAS) Snapshot() RASState {
	return RASState{Stack: append([]int32(nil), r.stack...), Top: r.top, Depth: r.depth}
}

// Restore loads st into r. The stack capacity must match.
func (r *RAS) Restore(st RASState) error {
	if len(st.Stack) != len(r.stack) {
		return fmt.Errorf("bpred: RAS capacity %d, want %d", len(st.Stack), len(r.stack))
	}
	if st.Top < 0 || st.Top >= len(r.stack) || st.Depth < 0 || st.Depth > len(r.stack) {
		return fmt.Errorf("bpred: RAS top %d / depth %d out of range for capacity %d",
			st.Top, st.Depth, len(r.stack))
	}
	copy(r.stack, st.Stack)
	r.top = st.Top
	r.depth = st.Depth
	return nil
}
