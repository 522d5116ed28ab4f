package mem

import (
	"fmt"
	"slices"
)

// CompactCache is the serializable state of one cache level, holding
// only its touched lines: a warmed L2 has a few to a few thousand valid
// lines of 16 384. A line is kept when any of its fields differs from a
// fresh cache's; every other line restores to zero, so the cache
// round-trips exactly. The static fields (name, sets, assoc, latency)
// stay with the live cache.
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

// CompactHierarchy is the serializable state of the full memory
// system.
type CompactHierarchy struct {
	L1I, L1D, L2 CompactCache
	// Banks is nil when interleaving is disabled.
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
