package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func nJobs(n int, run func(i int) (int, error)) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job%03d", i),
			Run: func(context.Context) (int, error) { return run(i) },
		}
	}
	return jobs
}

func TestRunAllSucceed(t *testing.T) {
	jobs := nJobs(20, func(i int) (int, error) { return i * i, nil })
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 20 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for i, j := range res.Jobs {
		if j.Index != i || j.Value != i*i || j.Err != nil || j.Skipped {
			t.Errorf("job %d = %+v", i, j)
		}
	}
	m := res.ByKey()
	if m["job007"] != 49 {
		t.Errorf("ByKey[job007] = %d", m["job007"])
	}
	s := res.Summary
	if s.Jobs != 20 || s.Succeeded != 20 || s.Failed != 0 || s.Skipped != 0 || s.Parallelism != 4 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	var cur, peak atomic.Int64
	jobs := nJobs(32, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return i, nil
	})
	if _, err := Run(context.Background(), jobs, Options[int]{Parallelism: 3}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("observed parallelism %d > bound 3", p)
	}
}

func TestFailFastKeepsPartialResults(t *testing.T) {
	// Serial execution: job 5 fails, so jobs 0-4 complete, 5 fails, and
	// 6+ are never started.
	boom := errors.New("boom")
	jobs := nJobs(20, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	})
	res, err := Run(context.Background(), jobs, Options[int]{Parallelism: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	for i := 0; i < 5; i++ {
		if res.Jobs[i].Err != nil || res.Jobs[i].Value != i {
			t.Errorf("completed job %d lost: %+v", i, res.Jobs[i])
		}
	}
	if res.Jobs[5].Err == nil || res.Jobs[5].Skipped {
		t.Errorf("failing job = %+v", res.Jobs[5])
	}
	skipped := 0
	for _, j := range res.Jobs[6:] {
		if j.Skipped {
			skipped++
			if !errors.Is(j.Err, context.Canceled) {
				t.Errorf("skipped job err = %v", j.Err)
			}
		}
	}
	if skipped == 0 {
		t.Error("no jobs were skipped after the failure")
	}
	if res.Summary.Failed != 1 || res.Summary.Succeeded != 5 || res.Summary.Skipped != 14 {
		t.Errorf("summary = %+v", res.Summary)
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	jobs := nJobs(50, func(i int) (int, error) {
		once.Do(func() { close(started) })
		time.Sleep(time.Millisecond)
		return i, nil
	})
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(ctx, jobs, Options[int]{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Summary.Skipped == 0 {
		t.Error("cancellation should skip pending jobs")
	}
	if res.Summary.Succeeded+res.Summary.Failed+res.Summary.Skipped != 50 {
		t.Errorf("summary does not account for all jobs: %+v", res.Summary)
	}
}

func TestOnDoneAndMetrics(t *testing.T) {
	jobs := nJobs(8, func(i int) (int, error) { return i + 1, nil })
	res, err := Run(context.Background(), jobs, Options[int]{
		Parallelism: 4,
		Metrics: func(r JobResult[int]) map[string]float64 {
			return map[string]float64{"value": float64(r.Value)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Summary.Metrics["value"]
	if agg.Count != 8 || agg.Sum != 36 || agg.Min != 1 || agg.Max != 8 || agg.Mean() != 4.5 {
		t.Errorf("agg = %+v", agg)
	}
	if got := res.Summary.MetricNames(); len(got) != 1 || got[0] != "value" {
		t.Errorf("metric names = %v", got)
	}
}

// TestDeterminismAcrossParallelism locks in the engine's core
// guarantee: deterministic jobs produce identical Results (values,
// ordering, keys, metrics) at any worker count.
func TestDeterminismAcrossParallelism(t *testing.T) {
	mk := func() []Job[int64] {
		jobs := make([]Job[int64], 64)
		for i := range jobs {
			key := fmt.Sprintf("cfg-%d", i)
			jobs[i] = Job[int64]{
				Key: key,
				Run: func(context.Context) (int64, error) {
					return DeriveSeed(99, key), nil
				},
			}
		}
		return jobs
	}
	strip := func(r *Result[int64]) ([]JobResult[int64], map[string]Agg) {
		jobs := make([]JobResult[int64], len(r.Jobs))
		for i, j := range r.Jobs {
			j.Elapsed = 0
			jobs[i] = j
		}
		return jobs, r.Summary.Metrics
	}
	metrics := func(r JobResult[int64]) map[string]float64 {
		return map[string]float64{"seed_low": float64(uint16(r.Value))}
	}
	r1, err1 := Run(context.Background(), mk(), Options[int64]{Parallelism: 1, Metrics: metrics})
	r8, err8 := Run(context.Background(), mk(), Options[int64]{Parallelism: 8, Metrics: metrics})
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	j1, m1 := strip(r1)
	j8, m8 := strip(r8)
	if !reflect.DeepEqual(j1, j8) {
		t.Error("job results differ across parallelism")
	}
	if !reflect.DeepEqual(m1, m8) {
		t.Error("aggregated metrics differ across parallelism")
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("distinct keys should give distinct seeds")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("distinct bases should give distinct seeds")
	}
	if DeriveSeed(7, "crafty") != DeriveSeed(7, "crafty") {
		t.Error("derivation must be stable")
	}
	// Base 0 is a legitimate base for derivation.
	if DeriveSeed(0, "a") == DeriveSeed(0, "b") {
		t.Error("base 0 must still separate keys")
	}
	seen := map[int64]string{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("job-%d", i)
		s := DeriveSeed(12345, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, k)
		}
		seen[s] = k
	}
}

func TestEmptySweep(t *testing.T) {
	res, err := Run(context.Background(), nil, Options[int]{})
	if err != nil || len(res.Jobs) != 0 || res.Summary.Jobs != 0 {
		t.Errorf("empty sweep: res=%+v err=%v", res, err)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{
		Jobs: 4, Succeeded: 3, Failed: 1, Parallelism: 2,
		WallTime: 2 * time.Second, JobTime: 4 * time.Second,
		WarmupRuns: 2, WarmupReused: 1,
		Metrics: map[string]Agg{
			MetricSimCycles: {Count: 3, Sum: 6e6, Min: 1e6, Max: 3e6},
			MetricPeakTempK: {Count: 3, Sum: 1000, Min: 300, Max: 360},
		},
	}
	out := s.String()
	for _, want := range []string{"4 jobs", "3 ok", "1 failed", "2 warmups (1 reused)", "3.0 Mcycles/s", "peak 360.0 K"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
	if s.Throughput(MetricSimCycles) != 3e6 {
		t.Errorf("throughput = %f", s.Throughput(MetricSimCycles))
	}
}

// TestOnProgress checks the progress stream: one event per executed
// job, strictly monotonic Completed reaching Total, and per-job
// metrics matching what the Summary later aggregates.
func TestOnProgress(t *testing.T) {
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) { return i * 10, nil }}
	}
	var events []Progress
	res, err := Run(context.Background(), jobs, Options[int]{
		Parallelism: 4,
		Metrics: func(r JobResult[int]) map[string]float64 {
			return map[string]float64{"value": float64(r.Value)}
		},
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	var sum float64
	for i, p := range events {
		if p.Completed != i+1 {
			t.Errorf("event %d: Completed = %d, want %d (monotonic)", i, p.Completed, i+1)
		}
		if p.Total != len(jobs) {
			t.Errorf("event %d: Total = %d", i, p.Total)
		}
		if p.Err != nil || p.Metrics == nil {
			t.Errorf("event %d: err=%v metrics=%v", i, p.Err, p.Metrics)
		}
		sum += p.Metrics["value"]
	}
	if agg := res.Summary.Metrics["value"]; agg.Sum != sum {
		t.Errorf("progress metrics sum %v != summary sum %v", sum, agg.Sum)
	}
}

// TestOnProgressCancelled: skipped jobs emit no events, so a cancelled
// sweep's progress stops short of Total but stays monotonic.
func TestOnProgressCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job[int], 16)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) {
			if i == 0 {
				cancel()
			}
			return i, nil
		}}
	}
	var events []Progress
	res, _ := Run(ctx, jobs, Options[int]{
		Parallelism: 2,
		OnProgress:  func(p Progress) { events = append(events, p) },
	})
	if len(events) == 0 || len(events) >= len(jobs) {
		t.Fatalf("got %d events for a sweep cancelled early (want >0, <%d)", len(events), len(jobs))
	}
	for i, p := range events {
		if p.Completed != i+1 {
			t.Errorf("event %d: Completed = %d, want %d", i, p.Completed, i+1)
		}
	}
	if res.Summary.Skipped == 0 {
		t.Errorf("expected skipped jobs, summary = %+v", res.Summary)
	}
}
