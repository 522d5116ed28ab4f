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

	"github.com/heatstroke-sim/heatstroke/internal/config"
	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/cpu"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// StateVersion is the warm-record format version. It changes whenever
// WarmRecord or any state struct it carries gains, loses, or
// reinterprets a field; records of another version are rejected, never
// migrated (re-running warmup is always cheaper than a migration bug).
const StateVersion = 6

// ProgramsDigest hashes the threads' identity — names, entry points,
// and full instruction streams — so a warm record can prove it was
// built from the same programs it is being restored into.
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

// CoreWarm is one core's post-warmup state in the compact form warm
// stores hold between jobs and runs (see WarmRecord): pipeline, power
// model and sedation monitor. It carries no DTM state (warmup never
// ticks a policy) and no thermal state (a core warms alone, with no
// thermal step), so it restores into any core running the same programs on a
// machine of the same warm configuration and warmup length, under any
// DTM scope or policy, on a die of any size or grid resolution.
type CoreWarm struct {
	ProgsDigest string
	Core        cpu.CompactState
	Model       power.ModelState
	Monitor     score.MonitorState
	// WarmDigest is the producing configuration's CoreWarmDigest.
	WarmDigest string
	// WarmupCycles is the warmup length the core ran.
	WarmupCycles int64
}

// CoreWarmDigest names the configuration a core's warm state depends
// on: the WarmDigest with the topology cleared, since a core warms
// alone, whatever die it sits on. Warm keys hash it, CaptureCore
// stamps it into every CoreWarm, and RestoreCore enforces it.
func CoreWarmDigest(cfg config.Config) string {
	cfg.Topology = config.Topology{}
	return cfg.WarmDigest()
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
		ProgsDigest:  ProgramsDigest(cs.threads),
		Core:         cs.core.CompactSnapshot(),
		Model:        cs.model.Snapshot(),
		Monitor:      cs.mon.Snapshot(),
		WarmDigest:   CoreWarmDigest(s.cfg),
		WarmupCycles: s.opts.WarmupCycles,
	}
}

// RestoreCore loads w into core c instead of running WarmCore. It
// writes into the core, model and monitor the core's DTM policy already
// holds, so the policy needs no rebuild. w must come from the same
// programs and warm configuration (enforced by digest) and the same
// warmup length. It is read-only and may be restored into many cores
// concurrently.
func (s *Simulator) RestoreCore(c int, w *CoreWarm) error {
	if err := s.checkWarmable(c); err != nil {
		return err
	}
	if w == nil {
		return fmt.Errorf("sim: core %d: no warm state", c)
	}
	if d := CoreWarmDigest(s.cfg); w.WarmDigest != d {
		return fmt.Errorf("sim: core %d warm state built from warm-config %.12s.., simulator runs %.12s..", c, w.WarmDigest, d)
	}
	if w.WarmupCycles != s.opts.WarmupCycles {
		return fmt.Errorf("sim: core %d warm state ran a %d-cycle warmup, simulator runs %d", c, w.WarmupCycles, s.opts.WarmupCycles)
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
	return nil
}

// FinishWarmup closes a warmup assembled by WarmCore and RestoreCore.
// With die set, the die takes its temperatures: the Solver().State()
// of another simulator of the same configuration right after its
// warmup (the post-warmup die depends on the configuration alone, not
// on the programs). Otherwise the die is anchored, as a cold warmup
// does.
func (s *Simulator) FinishWarmup(die *thermal.SolverState) error {
	if s.warmed {
		return fmt.Errorf("sim: warmup already finished")
	}
	return s.finishWarmup(die)
}

func (s *Simulator) checkWarmable(c int) error {
	if c < 0 || c >= len(s.cores) {
		return fmt.Errorf("sim: core %d of %d", c, len(s.cores))
	}
	if s.warmed {
		return fmt.Errorf("sim: core %d warmup after the warmup finished", c)
	}
	return nil
}

// WarmRecord is one stored piece of warm state, the unit warm stores
// keep and fleet peers ship: one core's post-warmup state or one die's
// post-warmup temperatures, never both. A job's warm state is its
// cores' records plus its die's; the paper's machine is one core
// record and one die record.
type WarmRecord struct {
	Version int
	Core    *CoreWarm
	Die     *thermal.SolverState
}

// warmMagic prefixes encoded warm records, so a wrong file fails fast
// with a clear error instead of a gob panic deep in decode.
const warmMagic = "HEATSTROKE-WARM\n"

// WriteWarm gob-encodes rec to w behind a magic header.
func WriteWarm(w io.Writer, rec *WarmRecord) error {
	if _, err := io.WriteString(w, warmMagic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(rec)
}

// ReadWarm decodes a record written by WriteWarm. It rejects another
// file kind, another format version and a record holding both parts or
// neither.
func ReadWarm(r io.Reader) (*WarmRecord, error) {
	got := make([]byte, len(warmMagic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("sim: reading warm record header: %w", err)
	}
	if string(got) != warmMagic {
		return nil, fmt.Errorf("sim: not a warm record file (bad magic)")
	}
	rec := &WarmRecord{}
	if err := gob.NewDecoder(r).Decode(rec); err != nil {
		return nil, fmt.Errorf("sim: decoding warm record: %w", err)
	}
	if rec.Version != StateVersion {
		return nil, fmt.Errorf("sim: warm record format v%d, this build reads v%d", rec.Version, StateVersion)
	}
	if (rec.Core == nil) == (rec.Die == nil) {
		return nil, fmt.Errorf("sim: a warm record holds one core or one die")
	}
	return rec, nil
}

// WriteWarmFile writes rec to path atomically, through a temp file in
// the same directory and a rename, so readers never see a torn file.
func WriteWarmFile(path string, rec *WarmRecord) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := WriteWarm(bw, rec); err != nil {
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

// ReadWarmFile reads a warm record file written by WriteWarmFile.
func ReadWarmFile(path string) (*WarmRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadWarm(bufio.NewReader(f))
}
