package experiment

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// recordingStore is a WarmStore that misses on every Get and records
// every Put, capturing the warm keys a real run derives.
type recordingStore struct {
	mu   sync.Mutex
	puts map[string]bool
}

func (r *recordingStore) Get(string) (*sim.WarmRecord, bool) { return nil, false }
func (r *recordingStore) Put(key string, _ *sim.WarmRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.puts == nil {
		r.puts = make(map[string]bool)
	}
	r.puts[key] = true
}

func (r *recordingStore) keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.puts))
	for k := range r.puts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func warmKeysOpts() Options {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 40_000
	return Options{
		Config:      &cfg,
		Benchmarks:  []string{"crafty", "mcf"},
		Quantum:     40_000,
		Warmup:      1_000,
		Parallelism: 2,
		CodeVersion: "warmkeys-test",
	}
}

// TestWarmKeysMatchExecution is the contract the fleet coordinator
// depends on: the keys WarmKeys enumerates without simulating are
// exactly the keys a real run of the same experiment and options
// stores its warm records under — core keys and die keys, on the
// paper's single core and on the multi-core experiments' dies.
func TestWarmKeysMatchExecution(t *testing.T) {
	for _, name := range []string{NameFigure3, NameFigure4, NameThresholds, NameNeighborHeat, NameDTMScope} {
		t.Run(name, func(t *testing.T) {
			enumerated, err := WarmKeys(context.Background(), name, warmKeysOpts())
			if err != nil {
				t.Fatalf("WarmKeys: %v", err)
			}
			if len(enumerated) == 0 {
				t.Fatal("no warm keys enumerated")
			}
			rec := &recordingStore{}
			o := warmKeysOpts()
			o.WarmupCache = rec
			if _, err := RunContext(context.Background(), name, o); err != nil {
				t.Fatalf("run: %v", err)
			}
			want := rec.keys()
			got := append([]string(nil), enumerated...)
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("enumerated %d keys, execution stored %d\n enum %v\n exec %v", len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("key mismatch at %d:\n enum %s\n exec %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWarmKeysCheap: enumeration must not simulate, so even an
// otherwise-expensive experiment's key list comes back immediately and
// with no cycles run. The policies experiment at full default quantum
// would take minutes to simulate; enumeration is bounded by program
// generation only.
func TestWarmKeysCheap(t *testing.T) {
	o := warmKeysOpts()
	o.Quantum = 0 // config default: far too expensive to actually run in a unit test
	keys, err := WarmKeys(context.Background(), NamePolicies, o)
	if err != nil {
		t.Fatalf("WarmKeys: %v", err)
	}
	// policies: per benchmark, one attack pair shared across 5 DTM
	// kinds -> core keys collapse to one per benchmark (policy and
	// thresholds are excluded from warm keys by design), and every job
	// runs the same die.
	if len(keys) != 3 {
		t.Fatalf("policies warm keys = %d (%v), want 1 per benchmark and 1 die", len(keys), keys)
	}
}

// TestWarmKeysAcrossSeeds: the seed reaches warm state only through
// the programs it generates, so two seeds of fig3 share exactly the
// records that do not depend on it — the three attack variants' core
// keys and the die key — and nothing else.
func TestWarmKeysAcrossSeeds(t *testing.T) {
	keys := make([][]string, 2)
	for i, seed := range []int64{11, 12} {
		o := warmKeysOpts()
		o.Seed, o.SeedSet = seed, true
		var err error
		if keys[i], err = WarmKeys(context.Background(), NameFigure3, o); err != nil {
			t.Fatal(err)
		}
		// Two SPEC cores, three variant cores, one die.
		if len(keys[i]) != 6 {
			t.Fatalf("seed %d: %d warm keys, want 6", seed, len(keys[i]))
		}
	}
	shared := 0
	for _, k := range keys[1] {
		if slices.Contains(keys[0], k) {
			shared++
		}
	}
	if shared != 4 {
		t.Errorf("seeds share %d warm keys, want 4 (three variants and the die)", shared)
	}
}

// TestWarmKeysEdgeCases: no-simulation experiments enumerate empty,
// unknown names error.
func TestWarmKeysEdgeCases(t *testing.T) {
	keys, err := WarmKeys(context.Background(), NameTable1, warmKeysOpts())
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("table1 warm keys = %v, want none", keys)
	}
	if _, err := WarmKeys(context.Background(), "no-such-experiment", warmKeysOpts()); err == nil {
		t.Fatal("unknown experiment: want error")
	}
}
