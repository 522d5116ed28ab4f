package experiment

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// warmJobs builds ten jobs sharing one warm key: same config, threads,
// and warmup, differing only in DTM policy and observation options —
// exactly the axes a warm key must ignore.
func warmJobs(t *testing.T, o Options) []job {
	t.Helper()
	spec, err := specThread("crafty", o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := variantThread(2, o.Config.Thermal.Scale)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []job
	for _, policy := range dtm.Kinds() {
		for _, events := range []bool{false, true} {
			j := pairJob(o, string(policy)+map[bool]string{false: "", true: "/ev"}[events],
				spec, v2, policy, false)
			j.opts.CollectEvents = events
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// TestSweepWarmupReuse is the acceptance test for warm-state
// reuse: ten jobs sharing one warm key run warmup exactly once, and
// every job restores from it (TestWarmResultsMatchCold checks their
// results against the cold path).
func TestSweepWarmupReuse(t *testing.T) {
	o := tinyOptions().normalized()
	o.Parallelism = 4
	jobs := warmJobs(t, o)
	if len(jobs) < 8 {
		t.Fatalf("only %d jobs", len(jobs))
	}
	keys := keysOf(o, jobs[0])
	for _, j := range jobs[1:] {
		if !reflect.DeepEqual(keysOf(o, j), keys) {
			t.Fatalf("job %s has different warm keys", j.key)
		}
	}

	restores := 0
	var mu sync.Mutex
	o.OnRestore = func(float64) { mu.Lock(); restores++; mu.Unlock() }

	_, sum, err := runSweep(context.Background(), jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if sum.WarmupRuns != 1 || sum.WarmupReused != len(jobs)-1 {
		t.Fatalf("warmups = %d runs / %d reused, want 1 / %d",
			sum.WarmupRuns, sum.WarmupReused, len(jobs)-1)
	}
	if restores != len(jobs) {
		t.Fatalf("OnRestore fired %d times, want %d", restores, len(jobs))
	}
}

// TestWarmResultsMatchCold: every result of the ten jobs
// TestSweepWarmupReuse shares one warm key across, events included, is
// deep-equal to the same job run from a cold warmup.
func TestWarmResultsMatchCold(t *testing.T) {
	o := tinyOptions().normalized()
	o.Parallelism = 4
	jobs := warmJobs(t, o)
	warmed, _, err := runSweep(context.Background(), jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	cold := o
	cold.DisableWarmupReuse = true
	cold.OnRestore = func(float64) { t.Error("cold path must not restore") }
	coldRes, coldSum, err := runSweep(context.Background(), jobs, cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldSum.WarmupRuns != 0 || coldSum.WarmupReused != 0 {
		t.Fatalf("cold path reported warmup sharing: %d/%d", coldSum.WarmupRuns, coldSum.WarmupReused)
	}
	if len(coldRes) != len(jobs) {
		t.Fatalf("cold path returned %d results for %d jobs", len(coldRes), len(jobs))
	}
	for k, want := range coldRes {
		if got := warmed[k]; !reflect.DeepEqual(want, got) {
			t.Errorf("job %s: warm-reused result differs from cold run", k)
		}
	}
}

// TestWarmKeySeparates: anything that changes the post-warmup state —
// config, programs, warmup length, code version — must change the
// job's warm keys.
func TestWarmKeySeparates(t *testing.T) {
	o := tinyOptions().normalized()
	jobs := warmJobs(t, o)
	base := keysOf(o, jobs[0])

	ideal := jobs[0]
	ideal.cfg.Thermal.IdealSink = true
	if reflect.DeepEqual(keysOf(o, ideal), base) {
		t.Error("ideal-sink config shares the real-sink keys")
	}

	solo := jobs[0]
	solo.cores = [][]sim.Thread{solo.cores[0][:1]}
	if reflect.DeepEqual(keysOf(o, solo), base) {
		t.Error("different threads share keys")
	}

	longer := jobs[0]
	longer.opts.WarmupCycles++
	if reflect.DeepEqual(keysOf(o, longer), base) {
		t.Error("different warmup lengths share keys")
	}

	ov := o
	ov.CodeVersion = "other"
	if reflect.DeepEqual(keysOf(ov, jobs[0]), base) {
		t.Error("different code versions share keys")
	}
}

// countingStore is an in-memory WarmStore that counts its hits and
// puts.
type countingStore struct {
	mu   sync.Mutex
	m    map[string]*sim.WarmRecord
	hits int
	puts int
}

func (s *countingStore) Get(key string) (*sim.WarmRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.m[key]
	if ok {
		s.hits++
	}
	return rec, ok
}

func (s *countingStore) Put(key string, rec *sim.WarmRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*sim.WarmRecord)
	}
	s.m[key] = rec
	s.puts++
}

// TestWarmupCacheAcrossRuns: a persistent store turns the second run's
// warmup into a cache hit, with identical results.
func TestWarmupCacheAcrossRuns(t *testing.T) {
	o := tinyOptions().normalized()
	o.Parallelism = 2
	store := &countingStore{}
	o.WarmupCache = store
	jobs := warmJobs(t, o)[:4]

	first, sum1, err := runSweep(context.Background(), jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	// One record for the pair's core, one for the die.
	if store.puts != 2 {
		t.Fatalf("first run put %d records, want 2", store.puts)
	}
	if sum1.WarmupRuns != 1 {
		t.Fatalf("first run warmups = %d", sum1.WarmupRuns)
	}

	second, sum2, err := runSweep(context.Background(), jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if store.hits == 0 {
		t.Fatal("second run never hit the cache")
	}
	if store.puts != 2 {
		t.Fatalf("second run re-put a record (%d puts)", store.puts)
	}
	// Every record comes from the store: no job simulates a warmup.
	if sum2.WarmupRuns != 0 {
		t.Fatalf("second run warmups = %d", sum2.WarmupRuns)
	}
	for k, want := range first {
		if !reflect.DeepEqual(want, second[k]) {
			t.Errorf("job %s: cached-warmup result differs", k)
		}
	}
}
