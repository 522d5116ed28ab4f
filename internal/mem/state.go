package mem

import (
	"fmt"
	"slices"
)

// CacheState is the serializable state of one cache level. Geometry is
// carried implicitly by the slice lengths and checked on restore; the
// static fields (name, sets, assoc, latency) stay with the live cache.
type CacheState struct {
	Tags  []uint64
	Valid []bool
	Dirty []bool
	LRU   []uint64
	Clock uint64
	Stats CacheStats
}

// HierarchyState is the serializable state of the full memory system.
type HierarchyState struct {
	L1I CacheState
	L1D CacheState
	L2  CacheState
	// Banks is nil when interleaving is disabled.
	Banks           []int64
	BankQueueCycles uint64
}

// MemoryState is the serializable state of one functional memory image.
type MemoryState struct {
	Pages map[uint64][]int64
}

// Clone returns a deep copy of the cache state.
func (st CacheState) Clone() CacheState {
	out := st
	out.Tags = slices.Clone(st.Tags)
	out.Valid = slices.Clone(st.Valid)
	out.Dirty = slices.Clone(st.Dirty)
	out.LRU = slices.Clone(st.LRU)
	return out
}

// Clone returns a deep copy of the hierarchy state.
func (st HierarchyState) Clone() HierarchyState {
	out := st
	out.L1I = st.L1I.Clone()
	out.L1D = st.L1D.Clone()
	out.L2 = st.L2.Clone()
	out.Banks = slices.Clone(st.Banks)
	return out
}

// Clone returns a deep copy of the memory image state.
func (st MemoryState) Clone() MemoryState {
	if st.Pages == nil {
		return st
	}
	pages := make(map[uint64][]int64, len(st.Pages))
	for k, v := range st.Pages {
		pages[k] = slices.Clone(v)
	}
	return MemoryState{Pages: pages}
}

// Snapshot returns a deep copy of the cache's state.
func (c *Cache) Snapshot() CacheState {
	return CacheState{
		Tags:  append([]uint64(nil), c.tags...),
		Valid: append([]bool(nil), c.valid...),
		Dirty: append([]bool(nil), c.dirty...),
		LRU:   append([]uint64(nil), c.lru...),
		Clock: c.clock,
		Stats: c.Stats,
	}
}

// Restore loads st into c. The geometry (total line count) must match.
func (c *Cache) Restore(st CacheState) error {
	n := len(c.tags)
	if len(st.Tags) != n || len(st.Valid) != n || len(st.Dirty) != n || len(st.LRU) != n {
		return fmt.Errorf("mem: %s state has %d/%d/%d/%d lines, want %d",
			c.name, len(st.Tags), len(st.Valid), len(st.Dirty), len(st.LRU), n)
	}
	copy(c.tags, st.Tags)
	copy(c.valid, st.Valid)
	copy(c.dirty, st.Dirty)
	copy(c.lru, st.LRU)
	c.clock = st.Clock
	c.Stats = st.Stats
	return nil
}

// Snapshot returns a deep copy of the hierarchy's state.
func (h *Hierarchy) Snapshot() HierarchyState {
	st := HierarchyState{
		L1I:             h.L1I.Snapshot(),
		L1D:             h.L1D.Snapshot(),
		L2:              h.L2.Snapshot(),
		BankQueueCycles: h.BankQueueCycles,
	}
	if h.banks != nil {
		st.Banks = append([]int64(nil), h.banks...)
	}
	return st
}

// Restore loads st into h. Cache geometries and the bank count must
// match the live hierarchy's configuration.
func (h *Hierarchy) Restore(st HierarchyState) error {
	if err := h.L1I.Restore(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.Restore(st.L1D); err != nil {
		return err
	}
	if err := h.L2.Restore(st.L2); err != nil {
		return err
	}
	if len(st.Banks) != len(h.banks) {
		return fmt.Errorf("mem: state has %d memory banks, want %d", len(st.Banks), len(h.banks))
	}
	copy(h.banks, st.Banks)
	h.BankQueueCycles = st.BankQueueCycles
	return nil
}

// Snapshot returns a deep copy of the memory image.
func (m *Memory) Snapshot() MemoryState {
	pages := make(map[uint64][]int64, len(m.pages))
	for k, v := range m.pages {
		pages[k] = append([]int64(nil), v...)
	}
	return MemoryState{Pages: pages}
}

// Restore replaces the memory image with a deep copy of st.
func (m *Memory) Restore(st MemoryState) error {
	pages := make(map[uint64][]int64, len(st.Pages))
	for k, v := range st.Pages {
		if len(v) != pageWords {
			return fmt.Errorf("mem: page %#x has %d words, want %d", k, len(v), pageWords)
		}
		pages[k] = append([]int64(nil), v...)
	}
	m.pages = pages
	return nil
}

// CompactCache is a cache's state holding only its touched lines: a
// warmed L2 has a few to a few thousand valid lines of 16 384, so the
// dense CacheState is mostly zeros. A line is kept when any of its
// fields differs from a fresh cache's; every other line restores to
// zero, so CompactCache round-trips exactly like CacheState.
type CompactCache struct {
	Lines int // the cache's total line count (its geometry)
	Index []int32
	Tags  []uint64
	LRU   []uint64
	Valid []bool
	Dirty []bool
	Clock uint64
	Stats CacheStats
}

// CompactHierarchy is the compact form of HierarchyState.
type CompactHierarchy struct {
	L1I, L1D, L2    CompactCache
	Banks           []int64
	BankQueueCycles uint64
}

// CompactMemory is a memory image holding only its non-zero words.
// Pages lists every resident page in ascending order, zero pages
// included, so page residency round-trips too; page i's words are
// Offs/Words[Ends[i-1]:Ends[i]].
type CompactMemory struct {
	Pages []uint64
	Ends  []int32
	Offs  []uint16
	Words []int64
}

// Compact returns the cache's state in compact form, read straight
// from the live arrays.
func (c *Cache) Compact() CompactCache {
	touched := func(i int) bool { return c.valid[i] || c.dirty[i] || c.tags[i] != 0 || c.lru[i] != 0 }
	n := 0
	for i := range c.tags {
		if touched(i) {
			n++
		}
	}
	st := CompactCache{
		Lines: len(c.tags),
		Index: make([]int32, 0, n),
		Tags:  make([]uint64, 0, n),
		LRU:   make([]uint64, 0, n),
		Valid: make([]bool, 0, n),
		Dirty: make([]bool, 0, n),
		Clock: c.clock,
		Stats: c.Stats,
	}
	for i := range c.tags {
		if touched(i) {
			st.Index = append(st.Index, int32(i))
			st.Tags = append(st.Tags, c.tags[i])
			st.LRU = append(st.LRU, c.lru[i])
			st.Valid = append(st.Valid, c.valid[i])
			st.Dirty = append(st.Dirty, c.dirty[i])
		}
	}
	return st
}

// RestoreCompact loads st into c: every line not in st is reset to a
// fresh cache's. The geometry must match.
func (c *Cache) RestoreCompact(st CompactCache) error {
	n := len(st.Index)
	if st.Lines != len(c.tags) {
		return fmt.Errorf("mem: %s compact state has %d lines, want %d", c.name, st.Lines, len(c.tags))
	}
	if len(st.Tags) != n || len(st.LRU) != n || len(st.Valid) != n || len(st.Dirty) != n {
		return fmt.Errorf("mem: %s compact state columns disagree with %d lines", c.name, n)
	}
	for _, i := range st.Index {
		if i < 0 || int(i) >= len(c.tags) {
			return fmt.Errorf("mem: %s compact state names line %d of %d", c.name, i, len(c.tags))
		}
	}
	clear(c.tags)
	clear(c.valid)
	clear(c.dirty)
	clear(c.lru)
	for k, i := range st.Index {
		c.tags[i], c.lru[i] = st.Tags[k], st.LRU[k]
		c.valid[i], c.dirty[i] = st.Valid[k], st.Dirty[k]
	}
	c.clock = st.Clock
	c.Stats = st.Stats
	return nil
}

// Compact returns the hierarchy's state in compact form.
func (h *Hierarchy) Compact() CompactHierarchy {
	return CompactHierarchy{
		L1I:             h.L1I.Compact(),
		L1D:             h.L1D.Compact(),
		L2:              h.L2.Compact(),
		Banks:           slices.Clone(h.banks),
		BankQueueCycles: h.BankQueueCycles,
	}
}

// RestoreCompact loads st into h. Cache geometries and the bank count
// must match the live hierarchy's configuration.
func (h *Hierarchy) RestoreCompact(st CompactHierarchy) error {
	if len(st.Banks) != len(h.banks) {
		return fmt.Errorf("mem: state has %d memory banks, want %d", len(st.Banks), len(h.banks))
	}
	if err := h.L1I.RestoreCompact(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.RestoreCompact(st.L1D); err != nil {
		return err
	}
	if err := h.L2.RestoreCompact(st.L2); err != nil {
		return err
	}
	copy(h.banks, st.Banks)
	h.BankQueueCycles = st.BankQueueCycles
	return nil
}

// Compact returns the memory image in compact form, read straight
// from the live pages.
func (m *Memory) Compact() CompactMemory {
	st := CompactMemory{Pages: make([]uint64, 0, len(m.pages)), Ends: make([]int32, len(m.pages))}
	n := 0
	for k, page := range m.pages {
		st.Pages = append(st.Pages, k)
		for _, w := range page {
			if w != 0 {
				n++
			}
		}
	}
	slices.Sort(st.Pages)
	st.Offs = make([]uint16, 0, n)
	st.Words = make([]int64, 0, n)
	for i, k := range st.Pages {
		for off, w := range m.pages[k] {
			if w != 0 {
				st.Offs = append(st.Offs, uint16(off))
				st.Words = append(st.Words, w)
			}
		}
		st.Ends[i] = int32(len(st.Words))
	}
	return st
}

// RestoreCompact replaces the memory image with the one st describes.
func (m *Memory) RestoreCompact(st CompactMemory) error {
	if len(st.Ends) != len(st.Pages) || len(st.Offs) != len(st.Words) {
		return fmt.Errorf("mem: compact image columns disagree (%d pages, %d ends, %d offsets, %d words)",
			len(st.Pages), len(st.Ends), len(st.Offs), len(st.Words))
	}
	start := int32(0)
	for _, end := range st.Ends {
		if end < start || int(end) > len(st.Words) {
			return fmt.Errorf("mem: compact image page end %d out of order", end)
		}
		start = end
	}
	for _, off := range st.Offs {
		if off >= pageWords {
			return fmt.Errorf("mem: compact image word offset %d beyond a %d-word page", off, pageWords)
		}
	}
	pages := make(map[uint64][]int64, len(st.Pages))
	start = 0
	for i, k := range st.Pages {
		page := make([]int64, pageWords)
		for w := start; w < st.Ends[i]; w++ {
			page[st.Offs[w]] = st.Words[w]
		}
		pages[k] = page
		start = st.Ends[i]
	}
	m.pages = pages
	return nil
}
