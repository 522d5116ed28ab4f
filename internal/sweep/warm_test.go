package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWarmupSharedAcrossJobs(t *testing.T) {
	var warmRuns atomic.Int64
	jobs := make([]Job[int], 12)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key:     fmt.Sprintf("job%d", i),
			WarmKey: "shared",
			Warm: func(ctx context.Context) (any, error) {
				warmRuns.Add(1)
				return 40, nil
			},
			RunWarm: func(ctx context.Context, warm any) (int, error) {
				return warm.(int) + i, nil
			},
		}
	}
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 6})
	if err != nil {
		t.Fatal(err)
	}
	if warmRuns.Load() != 1 {
		t.Fatalf("warm ran %d times, want 1", warmRuns.Load())
	}
	if res.Summary.WarmupRuns != 1 || res.Summary.WarmupReused != len(jobs)-1 {
		t.Fatalf("summary warmups = %d/%d, want 1/%d",
			res.Summary.WarmupRuns, res.Summary.WarmupReused, len(jobs)-1)
	}
	reused := 0
	for i, j := range res.Jobs {
		if j.Value != 40+i {
			t.Fatalf("job %d value %d", i, j.Value)
		}
		if j.WarmKey != "shared" {
			t.Fatalf("job %d warm key %q", i, j.WarmKey)
		}
		if j.WarmReused {
			reused++
		}
	}
	if reused != len(jobs)-1 {
		t.Fatalf("%d jobs reused, want %d", reused, len(jobs)-1)
	}
}

func TestWarmupDistinctKeys(t *testing.T) {
	var warmRuns atomic.Int64
	jobs := make([]Job[int], 6)
	for i := range jobs {
		key := fmt.Sprintf("warm%d", i%2)
		jobs[i] = Job[int]{
			Key:     fmt.Sprintf("job%d", i),
			WarmKey: key,
			Warm: func(ctx context.Context) (any, error) {
				warmRuns.Add(1)
				return key, nil
			},
			RunWarm: func(ctx context.Context, warm any) (int, error) { return 0, nil },
		}
	}
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if warmRuns.Load() != 2 || res.Summary.WarmupRuns != 2 || res.Summary.WarmupReused != 4 {
		t.Fatalf("warmups = %d (summary %d/%d), want 2 runs 4 reuses",
			warmRuns.Load(), res.Summary.WarmupRuns, res.Summary.WarmupReused)
	}
}

// TestWarmupErrorIsSticky: a failed Warm fails every job sharing its
// key, and neither a sharer nor a retry runs it again.
func TestWarmupErrorIsSticky(t *testing.T) {
	boom := errors.New("boom")
	var warmRuns atomic.Int64
	jobs := make([]Job[int], 4)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key:     fmt.Sprintf("job%d", i),
			WarmKey: "shared",
			Warm: func(ctx context.Context) (any, error) {
				warmRuns.Add(1)
				return nil, boom
			},
			RunWarm: func(ctx context.Context, warm any) (int, error) {
				t.Error("RunWarm must not run after a failed warmup")
				return 0, nil
			},
		}
	}
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 1, Policy: Collect, Retries: 1})
	if err == nil {
		t.Fatal("want error")
	}
	if warmRuns.Load() != 1 {
		t.Fatalf("failed warmup re-ran across jobs or retries: %d", warmRuns.Load())
	}
	for _, j := range res.Jobs {
		if !errors.Is(j.Err, boom) {
			t.Fatalf("job %s err = %v", j.Key, j.Err)
		}
		if j.Attempts != 2 {
			t.Fatalf("job %s made %d attempts, want 2 (one retry)", j.Key, j.Attempts)
		}
	}
}

// TestWarmupErrorIsStickyAcrossRetries: with two workers, retries on
// and a second key in the sweep, a failed Warm still runs once — every
// sharer and every retry gets its error — while the job on the other
// key is unaffected.
func TestWarmupErrorIsStickyAcrossRetries(t *testing.T) {
	boom := errors.New("boom")
	var badRuns atomic.Int64
	jobs := make([]Job[int], 0, 4)
	for i := 0; i < 3; i++ {
		jobs = append(jobs, Job[int]{
			Key:     fmt.Sprintf("b%d", i),
			WarmKey: "bad",
			Warm: func(ctx context.Context) (any, error) {
				badRuns.Add(1)
				return nil, boom
			},
			RunWarm: func(ctx context.Context, warm any) (int, error) {
				t.Error("RunWarm must not run after a failed warmup")
				return 0, nil
			},
		})
	}
	jobs = append(jobs, Job[int]{
		Key:     "g0",
		WarmKey: "good",
		Warm:    func(ctx context.Context) (any, error) { return 7, nil },
		RunWarm: func(ctx context.Context, warm any) (int, error) { return warm.(int), nil },
	})
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 2, Policy: Collect, Retries: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if badRuns.Load() != 1 {
		t.Errorf("failing warmup ran %d times, want 1 (sticky across jobs and retries)", badRuns.Load())
	}
	for _, j := range res.Jobs[:3] {
		if !errors.Is(j.Err, boom) {
			t.Errorf("job %s err = %v, want boom", j.Key, j.Err)
		}
		if j.Attempts != 2 {
			t.Errorf("job %s made %d attempts, want 2 (one retry)", j.Key, j.Attempts)
		}
	}
	if g := res.Jobs[3]; g.Err != nil || g.Value != 7 {
		t.Errorf("good job = %+v, want value 7", g)
	}
}

func TestWarmKeyWithoutFuncsFails(t *testing.T) {
	jobs := []Job[int]{{Key: "a", WarmKey: "k"}}
	res, _ := Run(context.Background(), jobs, Options[int]{})
	if res.Jobs[0].Err == nil {
		t.Fatal("warm key without Warm/RunWarm should fail the job")
	}
}

// TestWarmupRetryDoesNotCountAsReuse: a job whose RunWarm fails and is
// retried reuses the state it itself produced — that must not report
// as a shared reuse.
func TestWarmupRetryDoesNotCountAsReuse(t *testing.T) {
	attempts := 0
	jobs := []Job[int]{{
		Key:     "a",
		WarmKey: "k",
		Warm:    func(ctx context.Context) (any, error) { return 1, nil },
		RunWarm: func(ctx context.Context, warm any) (int, error) {
			attempts++
			if attempts == 1 {
				return 0, errors.New("flaky")
			}
			return warm.(int), nil
		},
	}}
	res, err := Run(context.Background(), jobs, Options[int]{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].WarmReused {
		t.Fatal("retry marked as warm reuse")
	}
	if res.Summary.WarmupRuns != 1 {
		t.Fatalf("warmup runs %d", res.Summary.WarmupRuns)
	}
}

// TestWarmupCancellation: a Warm stuck until the sweep is cancelled
// fails every job sharing its key, none of them measures, and the
// sweep reports the cancellation.
func TestWarmupCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var measured atomic.Int64
	jobs := make([]Job[int], 2)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key:     fmt.Sprintf("job%d", i),
			WarmKey: "shared",
			Warm: func(ctx context.Context) (any, error) {
				close(started)
				<-ctx.Done()
				return nil, ctx.Err()
			},
			RunWarm: func(ctx context.Context, warm any) (int, error) {
				measured.Add(1)
				return 0, nil
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(ctx, jobs, Options[int]{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if measured.Load() != 0 {
		t.Errorf("%d jobs measured despite the cancelled warmup", measured.Load())
	}
	for _, j := range res.Jobs {
		if j.Err == nil {
			t.Errorf("job %s has nil error after cancellation", j.Key)
		}
	}
}

// TestWarmupConcurrentStress: many keys, many sharers and more workers
// than jobs per key, for the race detector. Each Warm runs once and
// the values stay deterministic.
func TestWarmupConcurrentStress(t *testing.T) {
	var warmRuns [8]atomic.Int64
	var jobs []Job[int]
	for g := 0; g < 8; g++ {
		g := g
		for l := 0; l < 8; l++ {
			l := l
			jobs = append(jobs, Job[int]{
				Key:     fmt.Sprintf("g%dl%d", g, l),
				WarmKey: fmt.Sprintf("g%d", g),
				Warm: func(ctx context.Context) (any, error) {
					warmRuns[g].Add(1)
					return g * 100, nil
				},
				RunWarm: func(ctx context.Context, warm any) (int, error) {
					return warm.(int) + l, nil
				},
			})
		}
	}
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := res.ByKey()
	for g := range warmRuns {
		if n := warmRuns[g].Load(); n != 1 {
			t.Errorf("warm g%d ran %d times, want 1", g, n)
		}
		for l := 0; l < 8; l++ {
			key := fmt.Sprintf("g%dl%d", g, l)
			if v := got[key]; v != g*100+l {
				t.Errorf("%s = %d, want %d", key, v, g*100+l)
			}
		}
	}
	if res.Summary.WarmupRuns != 8 || res.Summary.WarmupReused != 56 {
		t.Errorf("summary warmups = %d/%d, want 8/56", res.Summary.WarmupRuns, res.Summary.WarmupReused)
	}
	if s := res.Summary.String(); !strings.Contains(s, "8 warmups (56 reused)") {
		t.Errorf("summary string %q missing the warmup counters", s)
	}
}
