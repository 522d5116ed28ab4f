package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// hookStore is an in-memory WarmStore that calls onGet before each
// lookup and onPut before each store, when set.
type hookStore struct {
	memStore
	onGet, onPut func(key string)
}

func newHookStore() *hookStore {
	return &hookStore{memStore: memStore{m: make(map[string]*sim.WarmRecord)}}
}

func (s *hookStore) Get(key string) (*sim.WarmRecord, bool) {
	if s.onGet != nil {
		s.onGet(key)
	}
	return s.memStore.Get(key)
}

func (s *hookStore) Put(key string, rec *sim.WarmRecord) {
	if s.onPut != nil {
		s.onPut(key)
	}
	s.memStore.Put(key, rec)
}

// holdLookups makes s hold every lookup of key until n lookups of it
// have arrived, so n concurrent jobs all miss it. A lookup held for a
// minute goes on, so a run that never makes n lookups fails its
// assertions instead of hanging.
func holdLookups(s *hookStore, key string, n int) {
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	s.onGet = func(k string) {
		if k != key {
			return
		}
		mu.Lock()
		if arrived++; arrived == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(time.Minute):
		}
	}
}

// TestWarmKeyBuiltOnceAcrossJobs: two jobs of different warm
// identities share a core key (and the die key). Both miss the key in
// the store, yet only one of them builds it: the other waits on its
// flight. Each key is Put exactly once.
func TestWarmKeyBuiltOnceAcrossJobs(t *testing.T) {
	o := multiOptions()
	o.Quantum = 100_000
	o.Warmup = 20_000
	o.Parallelism = 2
	o = o.normalized()
	var threads [3]sim.Thread
	for i, name := range []string{"crafty", "gcc", "mcf"} {
		var err error
		if threads[i], err = specThread(name, o.Seed); err != nil {
			t.Fatal(err)
		}
	}
	jobs := []job{
		dieJob(o, "crafty+gcc", [][]sim.Thread{{threads[0]}, {threads[1]}}, dtm.ScopePerCore, dtm.StopAndGo),
		dieJob(o, "crafty+mcf", [][]sim.Thread{{threads[0]}, {threads[2]}}, dtm.ScopePerCore, dtm.StopAndGo),
	}
	shared := keysOf(o, jobs[0]).cores[0]
	if keysOf(o, jobs[1]).cores[0] != shared {
		t.Fatal("the two jobs do not share core 0's key")
	}
	store := newHookStore()
	holdLookups(store, shared, 2)
	var mu sync.Mutex
	puts := map[string]int{}
	store.onPut = func(key string) { mu.Lock(); puts[key]++; mu.Unlock() }
	o.WarmupCache = store

	_, sum, err := runSweep(context.Background(), jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if puts[shared] != 1 {
		t.Errorf("shared core key Put %d times, want 1", puts[shared])
	}
	// crafty, gcc, mcf and the die, each once.
	if len(puts) != 4 {
		t.Errorf("Puts %v, want 4 keys once each", puts)
	}
	for key, n := range puts {
		if n != 1 {
			t.Errorf("key %.12s Put %d times, want 1", key, n)
		}
	}
	if sum.WarmupRuns != 2 || sum.WarmupReused != 0 {
		t.Errorf("warmups = %d runs / %d reused, want 2 / 0 (each job warms its own second core)",
			sum.WarmupRuns, sum.WarmupReused)
	}
}

// TestWarmFlightFailureIsSticky: a failed build fails every job that
// waits on its keys with the build's own error, and a later job that
// needs the key fails the same way without building it again.
func TestWarmFlightFailureIsSticky(t *testing.T) {
	o := multiOptions().normalized()
	crafty, err := specThread("crafty", o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Core 1 has no threads, so the warming simulator cannot be built.
	bad := dieJob(o, "bad", [][]sim.Thread{{crafty}, {}}, dtm.ScopePerCore, dtm.StopAndGo)
	store := newHookStore()
	holdLookups(store, keysOf(o, bad).cores[0], 2)
	o.WarmupCache = store
	fl := &flights{m: make(map[string]*flight)}

	errs := make(chan error, 2)
	for range 2 {
		go func() {
			_, built, err := runWarm(context.Background(), o, fl, bad)
			if built {
				t.Error("a job reports a core warmup its failed build never ran")
			}
			errs <- err
		}()
	}
	// The same error value, not an equal one: the waiter took the
	// build's error from its flight instead of failing a build of its
	// own.
	first, second := <-errs, <-errs
	if first == nil || first != second {
		t.Fatalf("errors %v and %v: want one build's error, shared", first, second)
	}
	if _, _, err := runWarm(context.Background(), o, fl, bad); err != first {
		t.Errorf("a later job got %v, want the failed build's %v", err, first)
	}
}

// TestWarmFlightWaitCancelled: a job waiting on a build that never
// finishes returns the run's cancellation cause.
func TestWarmFlightWaitCancelled(t *testing.T) {
	o := tinyOptions()
	o.Quantum = 100_000
	o.Warmup = 20_000
	o = o.normalized()
	j := warmJobs(t, o)[0]
	store := newHookStore()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	store.onPut = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	o.WarmupCache = store
	fl := &flights{m: make(map[string]*flight)}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	errs := make(chan error, 2)
	for range 2 {
		go func() {
			_, _, err := runWarm(ctx, o, fl, j)
			errs <- err
		}()
	}
	// One job is now stuck storing its first record; the other waits
	// on that record's flight.
	select {
	case <-entered:
	case <-time.After(time.Minute):
		t.Fatal("no job stored a record")
	}
	stop := errors.New("stop")
	cancel(stop)
	select {
	case err := <-errs:
		if !errors.Is(err, stop) {
			t.Errorf("waiting job returned %v, want the cancellation cause", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("waiting job did not return after cancellation")
	}
	close(release)
	<-errs
}

// TestWarmFlightStress: many keys, many sharers and overlapping key
// sets, for the race detector, over many rounds of fresh flights.
// Every key is built exactly once a round, and every job gets every
// key's record.
func TestWarmFlightStress(t *testing.T) {
	const rounds, keys, jobs = 50, 8, 64
	want := make([]*sim.WarmRecord, keys)
	for i := range want {
		want[i] = &sim.WarmRecord{Version: i}
	}
	for range rounds {
		fl := &flights{m: make(map[string]*flight)}
		var builds [keys]atomic.Int64
		var wg sync.WaitGroup
		for g := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				idx := []int{g % keys, (g + 1) % keys, (g + 3) % keys}
				names := make([]string, len(idx))
				for i, k := range idx {
					names[i] = fmt.Sprint("key", k)
				}
				own, held := fl.claim(names)
				for i, name := range names {
					if f := own[name]; f != nil {
						builds[idx[i]].Add(1)
						f.release(want[idx[i]], nil)
					}
				}
				for i, name := range names {
					f := own[name]
					if f == nil {
						f = held[name]
					}
					rec, err := f.wait(context.Background())
					if err != nil || rec != want[idx[i]] {
						t.Errorf("job %d: %s = %v, %v", g, name, rec, err)
					}
				}
			}()
		}
		wg.Wait()
		for k := range builds {
			if n := builds[k].Load(); n != 1 {
				t.Fatalf("key%d built %d times, want 1", k, n)
			}
		}
	}
}
