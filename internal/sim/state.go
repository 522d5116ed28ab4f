package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/cpu"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// StateVersion is the snapshot format version. It changes whenever any
// composed state struct gains, loses, or reinterprets a field; old
// snapshots are rejected, never migrated (re-running warmup is always
// cheaper than a migration bug).
//
// v2: MachineState gained WarmConfigDigest (the relaxed warm-sharing
// identity) and Quantum (mid-quantum fork state).
//
// v3: MachineState gained Multi, the whole-die state of a multi-core
// simulation.
//
// v4: one layout for every die size. Per-core state moved into Cores,
// the solver's kind-tagged temperatures into Solver, the chip policy
// into Chip, and the DTM scope into Scope; QuantumState carries one
// CoreQuantumState per core. The paper's machine is the K = 1 case.
const StateVersion = 4

// stateMagic prefixes on-disk snapshots so a wrong file fails fast with
// a clear error instead of a gob panic deep in decode.
const stateMagic = "HEATSTROKE-SNAP\n"

// MachineState is one whole-machine snapshot: every piece of mutable
// simulation state, composed from the per-package state structs, plus
// the identity of the machine that produced it. A MachineState is fully
// self-contained (deep-copied on both snapshot and restore), so one
// snapshot can seed any number of concurrently-running simulators.
//
// Policy records the producing simulator's DTM policy (dtm.ChipRoundRobin
// under the chip scope). The empty string is the warmup sentinel: the
// snapshot carries no policy actuation state (none existed — warmup
// never ticks a policy) and may be restored into a simulator running
// any scope and policy.
type MachineState struct {
	Version      int
	ConfigDigest string
	// WarmConfigDigest is the producing config's WarmDigest: the
	// configuration with every field warmup never reads normalized away
	// (see config.Config.WarmDigest). Warmup snapshots are restorable
	// into any simulator matching it — the relaxation that lets a
	// threshold grid fork from one shared warm prefix. Policy snapshots
	// still require the full ConfigDigest to match.
	WarmConfigDigest string
	ProgsDigest      string
	Policy           dtm.Kind
	Scope            dtm.Scope
	Warmed           bool

	// Cores holds each core's private state, in core order.
	Cores []CoreState
	// Solver is the thermal substrate's node temperatures.
	Solver thermal.SolverState
	// Chip is non-nil only for chip-scope policy snapshots.
	Chip   *dtm.ChipState
	Events []telemetry.Event

	// Quantum is non-nil when the snapshot was taken mid-quantum
	// (between BeginRun and FinishRun): the loop position and partial
	// accumulators needed to resume the measurement exactly where it
	// paused. Restoring it re-opens the quantum in the target simulator.
	Quantum *QuantumState
}

// CoreState is one core's private state: pipeline, power model,
// sedation monitor, and DTM policy.
type CoreState struct {
	Core    cpu.CoreState
	Model   power.ModelState
	Monitor score.MonitorState
	// Engine is non-nil only for selective-sedation policy snapshots.
	Engine *score.EngineState
	// DTM is nil for warmup snapshots (Policy == "").
	DTM     *dtm.State
	Reports []score.Report
}

// Clone returns a deep copy.
func (cs CoreState) Clone() CoreState {
	out := cs
	out.Core = cs.Core.Clone()
	out.Monitor = cs.Monitor.Clone()
	if cs.Engine != nil {
		es := cs.Engine.Clone()
		out.Engine = &es
	}
	if cs.DTM != nil {
		ds := cs.DTM.Clone()
		out.DTM = &ds
	}
	out.Reports = slices.Clone(cs.Reports)
	return out
}

// QuantumState is the serializable state of a measurement quantum in
// progress, so a mid-quantum fork's child finishes with a Result
// deep-equal to the unforked original's. The chip-wide accumulators
// cover the whole die (on one core, the core itself).
type QuantumState struct {
	Quantum int64
	Done    int64
	Chunks  int64

	StartCycle     int64
	AboveEmergency bool
	EnergyAccum    float64
	PeakTemp       float64
	PeakUnit       power.Unit
	PeakCore       int
	Emergencies    int

	// Cores holds each core's baselines and partial accumulators.
	Cores []CoreQuantumState
}

// CoreQuantumState is one core's share of a quantum in progress.
type CoreQuantumState struct {
	StartStalled  uint64
	StartStats    []cpu.ThreadStats
	StartRF       []uint64
	LastCommitted []uint64

	AboveEmergency bool
	PeakTemp       float64
	PeakUnit       power.Unit
	Emergencies    int
	RFTrace        []float64
}

// Clone returns a deep copy of the quantum state.
func (q QuantumState) Clone() QuantumState {
	out := q
	out.Cores = make([]CoreQuantumState, len(q.Cores))
	for c, cq := range q.Cores {
		cq.StartStats = slices.Clone(cq.StartStats)
		cq.StartRF = slices.Clone(cq.StartRF)
		cq.LastCommitted = slices.Clone(cq.LastCommitted)
		cq.RFTrace = slices.Clone(cq.RFTrace)
		out.Cores[c] = cq
	}
	return out
}

// Clone returns a deep copy of the machine state without a gob
// round-trip: the fork-tree hot path for handing one snapshot to many
// children. The clone shares no memory with ms — mutating either side
// never leaks into the other (enforced by the aliasing regression
// tests).
func (ms *MachineState) Clone() *MachineState {
	out := *ms
	out.Cores = make([]CoreState, len(ms.Cores))
	for c, cs := range ms.Cores {
		out.Cores[c] = cs.Clone()
	}
	out.Solver = ms.Solver.Clone()
	if ms.Chip != nil {
		ch := ms.Chip.Clone()
		out.Chip = &ch
	}
	out.Events = slices.Clone(ms.Events)
	if ms.Quantum != nil {
		qs := ms.Quantum.Clone()
		out.Quantum = &qs
	}
	return &out
}

// ProgramsDigest hashes the threads' identity — names, entry points,
// and full instruction streams — so a snapshot can prove it was built
// from the same programs it is being restored into.
func ProgramsDigest(threads []Thread) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(len(threads)))
	for _, t := range threads {
		io.WriteString(h, t.Name)
		h.Write([]byte{0})
		if t.Prog == nil {
			writeInt(-1)
			continue
		}
		io.WriteString(h, t.Prog.Name)
		h.Write([]byte{0})
		writeInt(int64(t.Prog.Entry))
		writeInt(int64(len(t.Prog.Insts)))
		for _, in := range t.Prog.Insts {
			writeInt(int64(in.Op))
			h.Write([]byte{in.Dst, in.Src1, in.Src2})
			writeInt(in.Imm)
			writeInt(int64(in.Target))
			if in.UseImm {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// progsDigest hashes every core's thread identity, core order
// included, so a snapshot can prove it was built from the same
// per-core programs it is being restored into. A core-boundary marker
// thread keeps {[A B]} and {[A] [B]} distinct.
func (s *Simulator) progsDigest() string {
	var all []Thread
	for _, cs := range s.cores {
		all = append(all, Thread{Name: "\x00core"})
		all = append(all, cs.threads...)
	}
	return ProgramsDigest(all)
}

// Snapshot captures the simulator's complete mutable state. The
// returned state shares no memory with the simulator; both sides may
// continue (or restore) independently.
func (s *Simulator) Snapshot() (*MachineState, error) {
	s.anchor()
	ms := &MachineState{
		Version:          StateVersion,
		ConfigDigest:     s.cfg.Digest(),
		WarmConfigDigest: s.cfg.WarmDigest(),
		ProgsDigest:      s.progsDigest(),
		Policy:           s.opts.Policy,
		Scope:            s.opts.Scope,
		Warmed:           s.warmed,
		Cores:            make([]CoreState, len(s.cores)),
		Solver:           s.solver.State(),
	}
	for c, cs := range s.cores {
		st := CoreState{
			Core:    cs.core.Snapshot(),
			Model:   cs.model.Snapshot(),
			Monitor: cs.mon.Snapshot(),
		}
		if len(cs.reports) > 0 {
			st.Reports = slices.Clone(cs.reports)
		}
		ds, err := dtm.Snapshot(cs.policy)
		if err != nil {
			return nil, err
		}
		st.DTM = &ds
		if eng := cs.policy.Engine(); eng != nil {
			es := eng.Snapshot()
			st.Engine = &es
		}
		ms.Cores[c] = st
	}
	if s.chip != nil {
		ch, err := dtm.SnapshotChip(s.chip)
		if err != nil {
			return nil, err
		}
		ms.Chip = &ch
	}
	if s.events != nil && len(s.events.Events) > 0 {
		ms.Events = slices.Clone(s.events.Events)
	}
	if s.qr != nil {
		qs := s.qr.QuantumState.Clone()
		ms.Quantum = &qs
	}
	return ms, nil
}

// WarmupSnapshot runs the warmup phase (if not yet run) and captures
// the machine state it established, tagged policy-agnostic: warmup
// never ticks a DTM policy, so the state is identical under every
// scope and policy and the snapshot restores into a simulator running
// any of them. It must be called before any measurement (RunCycles).
func (s *Simulator) WarmupSnapshot() (*MachineState, error) {
	if s.started {
		return nil, fmt.Errorf("sim: warmup snapshot requested after measurement started")
	}
	if err := s.warmup(); err != nil {
		return nil, err
	}
	ms, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	ms.Policy, ms.Scope, ms.Chip = "", "", nil
	for c := range ms.Cores {
		ms.Cores[c].DTM = nil
		ms.Cores[c].Engine = nil
	}
	return ms, nil
}

// Restore loads ms into s, which must have been built from the same
// configuration and per-core threads (enforced by digest) and — unless
// ms is a policy-agnostic warmup snapshot — the same DTM scope and
// policy. After Restore, continuing s is deep-equal-indistinguishable
// from continuing the simulator that produced ms. The state is copied,
// never aliased. The identity, shape and quantum checks run before
// anything is mutated; a component that rejects its part leaves s
// partly restored, to be discarded or restored again.
func (s *Simulator) Restore(ms *MachineState) error {
	if err := s.checkState(ms); err != nil {
		return err
	}
	warm := ms.Policy == ""
	for c, cs := range s.cores {
		st := &ms.Cores[c]
		if err := cs.core.Restore(st.Core); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if err := cs.model.Restore(st.Model); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if err := cs.mon.Restore(st.Monitor); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if !warm {
			if err := dtm.Restore(cs.policy, *st.DTM); err != nil {
				return fmt.Errorf("sim: core %d: %w", c, err)
			}
			if eng := cs.policy.Engine(); eng != nil {
				if err := eng.Restore(*st.Engine); err != nil {
					return fmt.Errorf("sim: core %d: %w", c, err)
				}
			}
		}
		cs.reports = append(cs.reports[:0], st.Reports...)
	}
	if err := s.solver.SetState(ms.Solver); err != nil {
		return err
	}
	s.anchored = true
	if warm {
		// A warmup snapshot carries no policy state because none existed
		// when it was taken. Rebuild the policies from scratch (after the
		// model restores above, so DVS captures the nominal supply
		// voltage) so that restoring into a previously-run simulator is
		// indistinguishable from restoring into a new one — the
		// precondition for recycling simulators through a Pool.
		if err := s.buildPolicies(); err != nil {
			return err
		}
	} else if s.chip != nil {
		if err := dtm.RestoreChip(s.chip, *ms.Chip); err != nil {
			return err
		}
	}
	if s.events != nil {
		s.events.Events = append(s.events.Events[:0], ms.Events...)
	}
	s.warmed = ms.Warmed
	s.coresRestored = false
	s.qr = nil
	if ms.Quantum != nil {
		s.qr = &quantumRun{QuantumState: ms.Quantum.Clone()}
		s.started = true
	} else if warm {
		// A policy-agnostic snapshot precedes measurement by definition;
		// restoring one re-arms WarmupSnapshot exactly as on a freshly
		// built simulator.
		s.started = false
	}
	return nil
}

// checkState verifies that ms belongs to s: format, identity, shape,
// and the mid-quantum position.
func (s *Simulator) checkState(ms *MachineState) error {
	if ms.Version != StateVersion {
		return fmt.Errorf("sim: snapshot format v%d, this build reads v%d", ms.Version, StateVersion)
	}
	warm := ms.Policy == ""
	if warm {
		// Warmup snapshots are identical under every value of the
		// warmup-invariant fields (thresholds, ablation switches, the
		// quantum length), so they restore across configs agreeing on
		// the relaxed warm digest: the fork-tree sweep's shared prefix.
		if d := s.cfg.WarmDigest(); ms.WarmConfigDigest != d {
			return fmt.Errorf("sim: warmup snapshot built from warm-config %.12s.., simulator runs %.12s..", ms.WarmConfigDigest, d)
		}
	} else if d := s.cfg.Digest(); ms.ConfigDigest != d {
		return fmt.Errorf("sim: snapshot built from config %.12s.., simulator runs %.12s..", ms.ConfigDigest, d)
	}
	if d := s.progsDigest(); ms.ProgsDigest != d {
		return fmt.Errorf("sim: snapshot built from programs %.12s.., simulator runs %.12s..", ms.ProgsDigest, d)
	}
	if !warm && (ms.Scope != s.opts.Scope || ms.Policy != s.opts.Policy) {
		return fmt.Errorf("sim: snapshot carries %s/%s DTM state, simulator runs %s/%s",
			ms.Scope, ms.Policy, s.opts.Scope, s.opts.Policy)
	}
	if len(ms.Cores) != len(s.cores) {
		return fmt.Errorf("sim: snapshot has %d cores, simulator %d", len(ms.Cores), len(s.cores))
	}
	if !warm {
		for c, cs := range s.cores {
			if ms.Cores[c].DTM == nil || (cs.policy.Engine() != nil && ms.Cores[c].Engine == nil) {
				return fmt.Errorf("sim: core %d snapshot missing %q policy state", c, ms.Policy)
			}
		}
		if s.chip != nil && ms.Chip == nil {
			return fmt.Errorf("sim: chip-scope snapshot missing chip policy state")
		}
	}
	q := ms.Quantum
	if q == nil {
		return nil
	}
	if q.Quantum <= 0 || q.Done < 0 || q.Chunks < 0 {
		return fmt.Errorf("sim: quantum state position %d/%d (chunks %d) invalid", q.Done, q.Quantum, q.Chunks)
	}
	if len(q.Cores) != len(s.cores) {
		return fmt.Errorf("sim: quantum state has %d cores, simulator %d", len(q.Cores), len(s.cores))
	}
	for c, cs := range s.cores {
		cq, n := &q.Cores[c], len(cs.threads)
		if len(cq.StartStats) != n || len(cq.StartRF) != n || len(cq.LastCommitted) != n {
			return fmt.Errorf("sim: quantum state has %d/%d/%d contexts for core %d, want %d",
				len(cq.StartStats), len(cq.StartRF), len(cq.LastCommitted), c, n)
		}
	}
	return nil
}

// CoreWarm is one core's post-warmup state in the compact form a
// whole-die sweep holds between jobs: pipeline, power model and
// sedation monitor. It carries no DTM state (warmup never ticks a
// policy) and no thermal state (a core warms alone, with no thermal
// step), so it restores into any core running the same programs on a
// machine of the same warm configuration, under any DTM scope or
// policy, on a die of any size or grid resolution.
type CoreWarm struct {
	ProgsDigest string
	Core        cpu.CompactState
	Model       power.ModelState
	Monitor     score.MonitorState
}

// WarmCore simulates core c's warmup in place. Together with
// RestoreCore and FinishWarmup it assembles a warmup core by core:
// each core is either warmed here or restored from a CoreWarm, then
// FinishWarmup closes the warmup. Run performs the same steps on
// every core itself when the caller assembles nothing.
func (s *Simulator) WarmCore(c int) error {
	if err := s.checkWarmable(c); err != nil {
		return err
	}
	s.cores[c].warm(s.opts.WarmupCycles)
	return nil
}

// CaptureCore returns core c's state, typically right after WarmCore.
// The state shares no memory with the simulator.
func (s *Simulator) CaptureCore(c int) *CoreWarm {
	cs := s.cores[c]
	return &CoreWarm{
		ProgsDigest: ProgramsDigest(cs.threads),
		Core:        cs.core.CompactSnapshot(),
		Model:       cs.model.Snapshot(),
		Monitor:     cs.mon.Snapshot(),
	}
}

// RestoreCore loads w into core c in place of WarmCore; FinishWarmup
// then rebuilds the DTM policies over the restored cores. w is
// read-only and may be restored into many cores concurrently.
func (s *Simulator) RestoreCore(c int, w *CoreWarm) error {
	if err := s.checkWarmable(c); err != nil {
		return err
	}
	cs := s.cores[c]
	if d := ProgramsDigest(cs.threads); w.ProgsDigest != d {
		return fmt.Errorf("sim: core %d warm state built from programs %.12s.., core runs %.12s..", c, w.ProgsDigest, d)
	}
	if err := cs.core.RestoreCompact(w.Core); err != nil {
		return fmt.Errorf("sim: core %d: %w", c, err)
	}
	if err := cs.model.Restore(w.Model); err != nil {
		return fmt.Errorf("sim: core %d: %w", c, err)
	}
	if err := cs.mon.Restore(w.Monitor); err != nil {
		return fmt.Errorf("sim: core %d: %w", c, err)
	}
	cs.reports = cs.reports[:0]
	s.coresRestored = true
	return nil
}

// FinishWarmup closes a warmup assembled by WarmCore and RestoreCore.
// With die set, the die takes its temperatures: the Solver().State()
// of another simulator of the same configuration right after its
// warmup (the post-warmup die depends on the configuration alone, not
// on the programs). Otherwise the die is anchored, as a cold warmup
// does.
func (s *Simulator) FinishWarmup(die *thermal.SolverState) error {
	if s.warmed || s.started {
		return fmt.Errorf("sim: warmup already finished")
	}
	return s.finishWarmup(die)
}

func (s *Simulator) checkWarmable(c int) error {
	if c < 0 || c >= len(s.cores) {
		return fmt.Errorf("sim: core %d of %d", c, len(s.cores))
	}
	if s.warmed || s.started {
		return fmt.Errorf("sim: core %d warmup after the warmup finished", c)
	}
	return nil
}

// WriteState gob-encodes ms to w behind a magic header.
func WriteState(w io.Writer, ms *MachineState) error {
	if _, err := io.WriteString(w, stateMagic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(ms)
}

// ReadState decodes a snapshot written by WriteState.
func ReadState(r io.Reader) (*MachineState, error) {
	magic := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("sim: reading snapshot header: %w", err)
	}
	if string(magic) != stateMagic {
		return nil, fmt.Errorf("sim: not a snapshot file (bad magic)")
	}
	ms := &MachineState{}
	if err := gob.NewDecoder(r).Decode(ms); err != nil {
		return nil, fmt.Errorf("sim: decoding snapshot: %w", err)
	}
	if ms.Version != StateVersion {
		return nil, fmt.Errorf("sim: snapshot format v%d, this build reads v%d", ms.Version, StateVersion)
	}
	return ms, nil
}

// WriteStateFile writes ms to path atomically (temp file + rename).
func WriteStateFile(path string, ms *MachineState) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := WriteState(bw, ms); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadStateFile reads a snapshot file written by WriteStateFile.
func ReadStateFile(path string) (*MachineState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadState(bufio.NewReader(f))
}
