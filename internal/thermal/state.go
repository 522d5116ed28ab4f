package thermal

import "fmt"

// NetworkState is the serializable state of the thermal network: the
// node temperatures (die blocks, spreader sections, sink). Everything
// else — capacitances, conductances, the stability bound — is derived
// from the floorplan and package parameters at construction.
type NetworkState struct {
	Temps []float64
}

// Snapshot returns a deep copy of the node temperatures.
func (nw *Network) Snapshot() NetworkState {
	return NetworkState{Temps: append([]float64(nil), nw.temps...)}
}

// Restore loads st into nw. The node count (2*blocks+1) must match.
func (nw *Network) Restore(st NetworkState) error {
	if len(st.Temps) != len(nw.temps) {
		return fmt.Errorf("thermal: state has %d nodes, want %d", len(st.Temps), len(nw.temps))
	}
	copy(nw.temps, st.Temps)
	return nil
}
