package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
)

func TestCacheSnapshotRestore(t *testing.T) {
	a, err := NewCache("t", geom(1<<12, 64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a.Access(uint64(rng.Intn(1<<14)), rng.Intn(2) == 0)
	}
	st := a.Snapshot()

	b, err := NewCache("t", geom(1<<12, 64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	// Same subsequent stream must hit and miss identically.
	for i := 0; i < 2000; i++ {
		addr, write := uint64(rng.Intn(1<<14)), rng.Intn(2) == 0
		ha, da := a.AccessEvict(addr, write)
		hb, db := b.AccessEvict(addr, write)
		if ha != hb || da != db {
			t.Fatalf("access %d %#x: (%v,%v) vs (%v,%v)", i, addr, ha, da, hb, db)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}

	// The snapshot is a copy: the accesses above must not have mutated it.
	c, err := NewCache("t", geom(1<<12, 64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(st); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c.Snapshot(), a.Snapshot()) {
		t.Fatal("continued cache still equals the snapshot — test is vacuous")
	}

	wrong, err := NewCache("t", geom(1<<11, 64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.Restore(st); err == nil {
		t.Error("mismatched geometry should fail")
	}
}

func TestHierarchySnapshotRestore(t *testing.T) {
	m := config.Default().Memory
	a, err := NewHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	cycle := int64(0)
	for i := 0; i < 3000; i++ {
		cycle += int64(rng.Intn(4))
		if rng.Intn(4) == 0 {
			a.InstAt(uint64(rng.Intn(1<<16)), cycle)
		} else {
			a.DataAt(uint64(rng.Intn(1<<18)), rng.Intn(3) == 0, cycle)
		}
	}
	st := a.Snapshot()

	b, err := NewHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		cycle += int64(rng.Intn(4))
		addr := uint64(rng.Intn(1 << 18))
		write := rng.Intn(3) == 0
		ra := a.DataAt(addr, write, cycle)
		rb := b.DataAt(addr, write, cycle)
		if ra != rb {
			t.Fatalf("access %d: %+v vs %+v", i, ra, rb)
		}
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("hierarchies diverged after identical streams")
	}

	bad := st
	bad.Banks = append([]int64(nil), st.Banks...)
	bad.Banks = append(bad.Banks, 0)
	if err := b.Restore(bad); err == nil {
		t.Error("mismatched bank count should fail")
	}
}

func TestMemorySnapshotRestore(t *testing.T) {
	a := NewMemory()
	rng := rand.New(rand.NewSource(9))
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 24))
		a.Write(addrs[i], int64(i))
	}
	st := a.Snapshot()

	b := NewMemory()
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		if got := b.Read(addr); got != a.Read(addr) {
			t.Fatalf("addr %#x: %d vs %d (i=%d)", addr, b.Read(addr), a.Read(addr), i)
		}
	}
	if a.Pages() != b.Pages() {
		t.Fatalf("page counts diverge: %d vs %d", a.Pages(), b.Pages())
	}

	// Deep copy: writing through the restored image must not leak into
	// the snapshot or the source.
	b.Write(addrs[0], -1)
	if a.Read(addrs[0]) == -1 {
		t.Fatal("restored memory aliases the source")
	}
	c := NewMemory()
	if err := c.Restore(st); err != nil {
		t.Fatal(err)
	}
	if c.Read(addrs[0]) == -1 {
		t.Fatal("snapshot was mutated through a restored image")
	}

	bad := MemoryState{Pages: map[uint64][]int64{0: make([]int64, 3)}}
	if err := c.Restore(bad); err == nil {
		t.Error("wrong page size should fail")
	}
}

// TestCompactRoundTrip: the compact forms restore to exactly the state
// the dense snapshots describe, for caches, the hierarchy and memory
// images, and reject malformed input.
func TestCompactRoundTrip(t *testing.T) {
	m := config.Default().Memory
	a, err := NewHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	img := NewMemory()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a.DataAt(uint64(rng.Intn(1<<18)), rng.Intn(3) == 0, int64(i))
		if i%3 == 0 {
			// Zero writes keep a resident page with no non-zero word.
			img.Write(uint64(rng.Intn(1<<22)), int64(rng.Intn(3)))
		}
	}
	img.Write(1<<30, 0)

	// Restore into a dirtied target: lines and pages absent from the
	// compact form must come back as a fresh cache's and image's. The
	// sparse source leaves most of every level untouched.
	sparse, err := NewHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		sparse.DataAt(uint64(rng.Intn(1<<18)), i%2 == 0, int64(i))
		sparse.InstAt(uint64(rng.Intn(1<<16)), int64(i))
	}
	for _, src := range []*Hierarchy{a, sparse} {
		b, err := NewHierarchy(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			b.DataAt(uint64(rng.Intn(1<<20)), true, int64(i))
			b.InstAt(uint64(rng.Intn(1<<20)), int64(i))
		}
		if err := b.RestoreCompact(src.Compact()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(src.Snapshot(), b.Snapshot()) {
			t.Fatal("hierarchy compact round trip differs from the source")
		}
		if !reflect.DeepEqual(src.Compact(), b.Compact()) {
			t.Fatal("compact capture is not deterministic")
		}
	}
	b, err := NewHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewMemory()
	c.Write(1<<28, 9)
	if err := c.RestoreCompact(img.Compact()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Snapshot(), c.Snapshot()) {
		t.Fatal("memory compact round trip differs from the source")
	}
	if !reflect.DeepEqual(img.Compact(), c.Compact()) {
		t.Fatal("memory compact capture is not deterministic")
	}

	bad := a.Compact()
	bad.L2.Lines++
	if err := b.RestoreCompact(bad); err == nil {
		t.Error("mismatched geometry should fail")
	}
	bad = a.Compact()
	bad.L1D.Index[0] = -1
	if err := b.RestoreCompact(bad); err == nil {
		t.Error("out-of-range line should fail")
	}
	badMem := img.Compact()
	badMem.Offs[0] = pageWords
	if err := c.RestoreCompact(badMem); err == nil {
		t.Error("out-of-page word should fail")
	}
	badMem = img.Compact()
	badMem.Ends = badMem.Ends[1:]
	if err := c.RestoreCompact(badMem); err == nil {
		t.Error("missing page end should fail")
	}
}
