package cpu

import (
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/bpred"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/mem"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// Ref is the serializable form of an entry reference.
type Ref struct {
	ID  int32
	Gen uint32
}

// EventState is one pending writeback event. The event list is stored
// in its raw binary-heap layout so restore reproduces pop order (ties
// on the deadline break by heap structure) exactly.
type EventState struct {
	At  int64
	ID  int32
	Gen uint32
}

// ReadyRefState is one issue-ready entry in a ready queue.
type ReadyRefState struct {
	ID  int32
	Gen uint32
	Seq uint64
}

// EntryState is the serializable state of one pipeline entry. The
// entry's id is its index in CoreState.Entries; the inst/dec pointers
// are relinked from TID and PC on restore.
type EntryState struct {
	Gen   uint32
	State uint8

	TID int32
	Seq uint64
	PC  int32

	Prev, Next int32

	Prod      [3]Ref
	WaitCount int8
	ConsHead  int32
	NextCons  [3]int32

	Addr    uint64
	IsLoad  bool
	IsStore bool
	InLSQ   bool
	L2Miss  bool

	IsCond      bool
	BrTaken     bool
	BrPredTaken bool
	BrMispred   bool
	BrPCAddr    uint64

	DstClass isa.RegClass
	DstReg   uint8
	OldVal   int64
	MemOld   int64
	PrevProd Ref
}

// ThreadState is the serializable state of one hardware context. Pred
// and RAS are nil for idle contexts (no program loaded).
type ThreadState struct {
	IRegs [isa.NumIntRegs]int64
	FRegs [isa.NumFPRegs]float64

	PC int32

	FetchEnabled   bool
	FetchResumeAt  int64
	ICacheStallEnd int64
	CurLine        int64
	Blocker        Ref

	IFQ     [ifqDepth]int32
	IFQHead int
	IFQLen  int

	RenInt [isa.NumIntRegs]Ref
	RenFP  [isa.NumFPRegs]Ref

	Stores []Ref

	ListHead, ListTail int32
	InFlight           int

	Pred *bpred.PredictorState
	RAS  *bpred.RASState
}

// CoreState is the serializable state of the core apart from its
// memory system: pipeline entries, per-thread contexts, and the activity
// counters. Static configuration (FU limits, pool geometry, programs,
// the decode cache) and per-cycle scratch (fetch candidates, FU usage)
// stay with the live core; the fast-forward switch is a run-mode knob,
// not machine state.
type CoreState struct {
	Cycle int64
	Seq   uint64

	Entries []EntryState
	Free    []int32
	RUUUsed int
	LSQUsed int

	Events []EventState
	// ReadyQ has one logical queue per FU class, oldest first (the
	// live queue's consumed prefix is dropped).
	ReadyQ [][]ReadyRefState

	GlobalStall   bool
	ThrottleNum   int
	ThrottleDen   int
	Squashes      uint64
	DispatchRR    int
	StalledCycles uint64

	Stats []ThreadStats

	Act power.ActivityState

	Threads []ThreadState
}

func toRef(r ref) Ref   { return Ref{ID: r.id, Gen: r.gen} }
func fromRef(r Ref) ref { return ref{id: r.ID, gen: r.Gen} }
func toRefs(rs []ref) []Ref {
	out := make([]Ref, len(rs))
	for i, r := range rs {
		out[i] = toRef(r)
	}
	return out
}

// CompactState is the serializable state of the whole core: Core
// carries the pipeline and contexts, Hier the memory hierarchy and Mem
// each context's memory image. The caches keep only their touched
// lines and each memory image only its non-zero words (see
// mem.CompactCache), which keeps a warmed core at tens of KB.
type CompactState struct {
	Core CoreState
	Hier mem.CompactHierarchy
	Mem  []mem.CompactMemory
}

// CompactSnapshot returns a deep copy of the core's state, read
// straight from the live caches and pages; the copy shares nothing
// with the live core, so one snapshot can seed many clones.
func (c *Core) CompactSnapshot() CompactState {
	st := CompactState{Core: c.snapshot(), Hier: c.hier.Compact(), Mem: make([]mem.CompactMemory, len(c.threads))}
	for i, t := range c.threads {
		st.Mem[i] = t.mem.Compact()
	}
	return st
}

// snapshot captures everything but the memory hierarchy and the
// memory images.
func (c *Core) snapshot() CoreState {
	c.flushActivity() // fold pending deltas so Act captures exact counts
	st := CoreState{
		Cycle:         c.cycle,
		Seq:           c.seq,
		Entries:       make([]EntryState, len(c.entries)),
		Free:          append([]int32(nil), c.free...),
		RUUUsed:       c.ruuUsed,
		LSQUsed:       c.lsqUsed,
		Events:        make([]EventState, len(c.events)),
		ReadyQ:        make([][]ReadyRefState, fuCount),
		GlobalStall:   c.globalStall,
		ThrottleNum:   c.throttleNum,
		ThrottleDen:   c.throttleDen,
		Squashes:      c.squashes,
		DispatchRR:    c.dispatchRR,
		StalledCycles: c.stalledCycles,
		Stats:         append([]ThreadStats(nil), c.stats...),
		Act:           c.act.Snapshot(),
		Threads:       make([]ThreadState, len(c.threads)),
	}
	for i := range c.entries {
		e := &c.entries[i]
		st.Entries[i] = EntryState{
			Gen:         e.gen,
			State:       uint8(e.state),
			TID:         e.tid,
			Seq:         e.seq,
			PC:          e.pc,
			Prev:        e.prev,
			Next:        e.next,
			Prod:        [3]Ref{toRef(e.prod[0]), toRef(e.prod[1]), toRef(e.prod[2])},
			WaitCount:   e.waitCount,
			ConsHead:    e.consHead,
			NextCons:    e.nextCons,
			Addr:        e.addr,
			IsLoad:      e.isLoad,
			IsStore:     e.isStore,
			InLSQ:       e.inLSQ,
			L2Miss:      e.l2miss,
			IsCond:      e.isCond,
			BrTaken:     e.brTaken,
			BrPredTaken: e.brPredTaken,
			BrMispred:   e.brMispred,
			BrPCAddr:    e.brPCAddr,
			DstClass:    e.dstClass,
			DstReg:      e.dstReg,
			OldVal:      e.oldVal,
			MemOld:      e.memOld,
			PrevProd:    toRef(e.prevProd),
		}
	}
	for i, ev := range c.events {
		st.Events[i] = EventState{At: ev.at, ID: ev.id, Gen: ev.gen}
	}
	for f := range c.readyQ {
		q := &c.readyQ[f]
		live := q.buf[q.head:]
		if len(live) > 0 {
			out := make([]ReadyRefState, len(live))
			for i, r := range live {
				out[i] = ReadyRefState{ID: r.id, Gen: r.gen, Seq: r.seq}
			}
			st.ReadyQ[f] = out
		}
	}
	for i, t := range c.threads {
		ts := ThreadState{
			IRegs:          t.iregs,
			FRegs:          t.fregs,
			PC:             t.pc,
			FetchEnabled:   t.fetchEnabled,
			FetchResumeAt:  t.fetchResumeAt,
			ICacheStallEnd: t.icacheStallEnd,
			CurLine:        t.curLine,
			Blocker:        toRef(t.blocker),
			IFQ:            t.ifq,
			IFQHead:        t.ifqHead,
			IFQLen:         t.ifqLen,
			Stores:         toRefs(t.stores),
			ListHead:       t.listHead,
			ListTail:       t.listTail,
			InFlight:       t.inFlight,
		}
		for r := range t.renInt {
			ts.RenInt[r] = toRef(t.renInt[r])
		}
		for r := range t.renFP {
			ts.RenFP[r] = toRef(t.renFP[r])
		}
		if t.pred != nil {
			ps, err := bpred.Snapshot(t.pred)
			if err == nil {
				ts.Pred = &ps
			}
			rs := t.ras.Snapshot()
			ts.RAS = &rs
		}
		st.Threads[i] = ts
	}
	return st
}

// RestoreCompact loads st into c, which must have been built from the
// same configuration and programs (pool geometry and context count are
// checked; program identity is the caller's contract — the simulator
// enforces it with a digest). The state is copied, never aliased, so
// the same CompactState can restore many cores.
func (c *Core) RestoreCompact(st CompactState) error {
	if len(st.Mem) != len(c.threads) {
		return fmt.Errorf("cpu: compact state has %d memory images, want %d", len(st.Mem), len(c.threads))
	}
	if err := c.restore(st.Core); err != nil {
		return err
	}
	for i, m := range st.Mem {
		if err := c.threads[i].mem.RestoreCompact(m); err != nil {
			return err
		}
	}
	return c.hier.RestoreCompact(st.Hier)
}

// maxCounter bounds the cycle and dispatch round-robin counters a
// snapshot may carry. Both grow by at most one per cycle and index the
// contexts modulo their count; anything in [0, 2^62] is reachable and
// cannot overflow into a negative index within a run.
const maxCounter = 1 << 62

// checkLinks verifies every entry index and register number the state
// carries and that the lists the pipeline walks are well formed: a
// decodable snapshot with one index out of range would otherwise
// panic on the next cycle, and one with a cyclic list would hang it.
// Negative links and refs mean "none", as in the live core.
func (c *Core) checkLinks(st *CoreState) error {
	n := int32(len(c.entries))
	inPool := func(id int32) bool { return id < n }
	isEntry := func(id int32) bool { return id >= 0 && id < n }
	consumer := func(v int32) bool { return v < 0 || (v/4 < n && v%4 < 3) }

	if st.Cycle < 0 || st.Cycle > maxCounter || st.DispatchRR < 0 || st.DispatchRR > maxCounter {
		return fmt.Errorf("cpu: cycle %d or dispatch round-robin counter %d invalid", st.Cycle, st.DispatchRR)
	}
	free := 0
	for i := range st.Entries {
		es := &st.Entries[i]
		if es.State == uint8(esFree) {
			free++
		}
		ok := inPool(es.Prev) && inPool(es.Next) && consumer(es.ConsHead) && inPool(es.PrevProd.ID) &&
			int(es.DstReg) < min(isa.NumIntRegs, isa.NumFPRegs)
		for k := range es.Prod {
			ok = ok && inPool(es.Prod[k].ID) && consumer(es.NextCons[k])
		}
		if !ok {
			return fmt.Errorf("cpu: entry %d links or destination register out of range", i)
		}
	}
	// The free list holds exactly the free entries, once each, so no
	// entry can be allocated twice.
	if len(st.Free) != free {
		return fmt.Errorf("cpu: free list holds %d entries, %d are free", len(st.Free), free)
	}
	onFree := make([]bool, n)
	for _, id := range st.Free {
		if !isEntry(id) || onFree[id] || st.Entries[id].State != uint8(esFree) {
			return fmt.Errorf("cpu: free list names entry %d twice, out of range or in use", id)
		}
		onFree[id] = true
	}
	for _, ev := range st.Events {
		if !isEntry(ev.ID) {
			return fmt.Errorf("cpu: writeback event names entry %d of %d", ev.ID, n)
		}
	}
	for f, q := range st.ReadyQ {
		for _, r := range q {
			if !isEntry(r.ID) {
				return fmt.Errorf("cpu: ready queue %d names entry %d of %d", f, r.ID, n)
			}
		}
	}
	for i := range st.Threads {
		ts := &st.Threads[i]
		ok := inPool(ts.Blocker.ID) && inPool(ts.ListHead) && inPool(ts.ListTail)
		for _, r := range ts.RenInt {
			ok = ok && inPool(r.ID)
		}
		for _, r := range ts.RenFP {
			ok = ok && inPool(r.ID)
		}
		for _, r := range ts.Stores {
			ok = ok && inPool(r.ID)
		}
		for k := 0; k < ts.IFQLen; k++ {
			ok = ok && isEntry(ts.IFQ[(ts.IFQHead+k)%ifqDepth])
		}
		if !ok {
			return fmt.Errorf("cpu: context %d names an entry out of range", i)
		}
		// The dispatch-order list runs head to tail by next, each entry
		// pointing back by prev; commit walks it forward, a squash back.
		prev, steps := int32(-1), int32(0)
		for id := ts.ListHead; id >= 0; id = st.Entries[id].Next {
			if steps++; steps > n || st.Entries[id].Prev != prev {
				return fmt.Errorf("cpu: context %d dispatch list broken at entry %d", i, id)
			}
			prev = id
		}
		if prev != ts.ListTail && !(prev < 0 && ts.ListTail < 0) {
			return fmt.Errorf("cpu: context %d dispatch list ends at %d, tail is %d", i, prev, ts.ListTail)
		}
	}
	// Each (entry, operand slot) sits on at most one consumer chain, so
	// a walk longer than 3n has looped.
	for i := range st.Entries {
		steps := int32(0)
		for cur := st.Entries[i].ConsHead; cur >= 0; cur = st.Entries[cur/4].NextCons[cur%4] {
			if steps++; steps > 3*n {
				return fmt.Errorf("cpu: entry %d consumer chain loops", i)
			}
		}
	}
	return nil
}

// restore loads everything but the memory hierarchy and the memory
// images.
func (c *Core) restore(st CoreState) error {
	if len(st.Entries) != len(c.entries) {
		return fmt.Errorf("cpu: state has %d pool entries, want %d", len(st.Entries), len(c.entries))
	}
	if len(st.Threads) != len(c.threads) {
		return fmt.Errorf("cpu: state has %d contexts, want %d", len(st.Threads), len(c.threads))
	}
	if len(st.ReadyQ) != fuCount {
		return fmt.Errorf("cpu: state has %d ready queues, want %d", len(st.ReadyQ), fuCount)
	}
	if len(st.Free) > len(c.entries) || len(st.Stats) != len(c.threads) {
		return fmt.Errorf("cpu: state free list / stats sized %d/%d for pool %d contexts %d",
			len(st.Free), len(st.Stats), len(c.entries), len(c.threads))
	}
	// Validate entries before mutating anything: every non-free entry
	// must name a runnable context and an in-range pc so the inst/dec
	// relink below is safe.
	for i := range st.Entries {
		es := &st.Entries[i]
		if es.State == uint8(esFree) {
			continue
		}
		if es.State > uint8(esDone) {
			return fmt.Errorf("cpu: entry %d has unknown state %d", i, es.State)
		}
		if es.TID < 0 || int(es.TID) >= len(c.threads) {
			return fmt.Errorf("cpu: entry %d names context %d of %d", i, es.TID, len(c.threads))
		}
		t := c.threads[es.TID]
		if t.prog == nil {
			return fmt.Errorf("cpu: entry %d belongs to idle context %d", i, es.TID)
		}
		if es.PC < 0 || int(es.PC) >= t.prog.Len() {
			return fmt.Errorf("cpu: entry %d pc %d out of range for context %d", i, es.PC, es.TID)
		}
	}
	for i, ts := range st.Threads {
		t := c.threads[i]
		if (t.prog == nil) != (ts.Pred == nil) {
			return fmt.Errorf("cpu: context %d program presence mismatch", i)
		}
		if ts.IFQLen < 0 || ts.IFQLen > ifqDepth || ts.IFQHead < 0 || ts.IFQHead >= ifqDepth {
			return fmt.Errorf("cpu: context %d fetch queue head %d len %d invalid", i, ts.IFQHead, ts.IFQLen)
		}
		if t.prog != nil && (ts.PC < 0 || int(ts.PC) >= t.prog.Len()) {
			return fmt.Errorf("cpu: context %d pc %d out of range", i, ts.PC)
		}
	}
	if err := c.checkLinks(&st); err != nil {
		return err
	}
	for i, ts := range st.Threads {
		t := c.threads[i]
		if t.prog != nil {
			if err := bpred.Restore(t.pred, *ts.Pred); err != nil {
				return err
			}
			if err := t.ras.Restore(*ts.RAS); err != nil {
				return err
			}
		}
	}

	c.cycle = st.Cycle
	c.seq = st.Seq
	c.ruuUsed = st.RUUUsed
	c.lsqUsed = st.LSQUsed
	c.globalStall = st.GlobalStall
	c.throttleNum = st.ThrottleNum
	c.throttleDen = st.ThrottleDen
	c.squashes = st.Squashes
	c.dispatchRR = st.DispatchRR
	c.stalledCycles = st.StalledCycles
	copy(c.stats, st.Stats)

	c.free = append(c.free[:0], st.Free...)
	c.events = c.events[:0]
	for _, ev := range st.Events {
		c.events = append(c.events, event{at: ev.At, id: ev.ID, gen: ev.Gen})
	}
	for f := range c.readyQ {
		q := &c.readyQ[f]
		q.buf = q.buf[:0]
		q.head = 0
		for _, r := range st.ReadyQ[f] {
			q.buf = append(q.buf, readyRef{id: r.ID, gen: r.Gen, seq: r.Seq})
		}
	}

	for i := range st.Entries {
		es := &st.Entries[i]
		e := &c.entries[i]
		e.gen = es.Gen
		e.state = eState(es.State)
		e.tid = es.TID
		e.seq = es.Seq
		e.pc = es.PC
		e.prev, e.next = es.Prev, es.Next
		e.prod = [3]ref{fromRef(es.Prod[0]), fromRef(es.Prod[1]), fromRef(es.Prod[2])}
		e.waitCount = es.WaitCount
		e.consHead = es.ConsHead
		e.nextCons = es.NextCons
		e.addr = es.Addr
		e.isLoad, e.isStore, e.inLSQ, e.l2miss = es.IsLoad, es.IsStore, es.InLSQ, es.L2Miss
		e.isCond, e.brTaken = es.IsCond, es.BrTaken
		e.brPredTaken, e.brMispred = es.BrPredTaken, es.BrMispred
		e.brPCAddr = es.BrPCAddr
		e.dstClass = es.DstClass
		e.dstReg = es.DstReg
		e.oldVal = es.OldVal
		e.memOld = es.MemOld
		e.prevProd = fromRef(es.PrevProd)
		if e.state != esFree {
			t := c.threads[e.tid]
			e.inst = &t.prog.Insts[e.pc]
			e.dec = &t.dec[e.pc]
		} else {
			e.inst = nil
			e.dec = nil
		}
	}

	for i, ts := range st.Threads {
		t := c.threads[i]
		t.iregs = ts.IRegs
		t.fregs = ts.FRegs
		t.pc = ts.PC
		t.fetchEnabled = ts.FetchEnabled
		t.fetchResumeAt = ts.FetchResumeAt
		t.icacheStallEnd = ts.ICacheStallEnd
		t.curLine = ts.CurLine
		t.blocker = fromRef(ts.Blocker)
		t.ifq = ts.IFQ
		t.ifqHead = ts.IFQHead
		t.ifqLen = ts.IFQLen
		for r := range t.renInt {
			t.renInt[r] = fromRef(ts.RenInt[r])
		}
		for r := range t.renFP {
			t.renFP[r] = fromRef(ts.RenFP[r])
		}
		t.stores = t.stores[:0]
		for _, r := range ts.Stores {
			t.stores = append(t.stores, fromRef(r))
		}
		t.listHead, t.listTail = ts.ListHead, ts.ListTail
		t.inFlight = ts.InFlight
	}

	// Snapshots carry exact counters (snapshot flushes first), so any
	// deltas batched since then belong to discarded execution.
	for tid := range c.pend {
		c.pend[tid] = [power.NumUnits]uint64{}
	}
	return c.act.Restore(st.Act)
}
