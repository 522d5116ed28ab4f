package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
)

// TestCompactRoundTrip: the compact forms restore caches, the
// hierarchy and memory images to exactly their source's state, and
// reject malformed input.
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
		if !reflect.DeepEqual(src, b) {
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
	if !reflect.DeepEqual(img, c) {
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
