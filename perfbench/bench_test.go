package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/stats"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

func TestNearestRank(t *testing.T) {
	for _, c := range []struct{ n, pct, rank, beyond int }{
		{1, 50, 1, 0}, {2, 50, 1, 1}, {20, 50, 10, 10}, {20, 99, 20, 0},
		// p99 has ten samples beyond it from 1000 samples on, not before.
		{999, 99, 990, 9}, {1000, 99, 990, 10}, {1001, 99, 991, 10},
	} {
		if r, b := rank(c.n, c.pct), beyond(c.n, c.pct); r != c.rank || b != c.beyond {
			t.Errorf("n=%d p%d: rank %d beyond %d, want %d and %d", c.n, c.pct, r, b, c.rank, c.beyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if p50, p99, p100 := median(xs), percentile(xs, 99), percentile(xs, 100); p50 != 50 || p99 != 99 || p100 != 100 {
		t.Errorf("p50/p99/p100 of 1..100 = %v/%v/%v, want 50/99/100", p50, p99, p100)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestSelfTime(t *testing.T) {
	// A parent [0,100] with children [10,30] and [20,50] (overlapping)
	// and [90,120] (clipped at 100): covered 40+10, self time 50.
	if got := covered(0, 100, [][2]int64{{10, 30}, {20, 50}, {90, 120}}); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

// TestRefusedRequestCountsAsFailed drives the open loop against a
// daemon that refuses every submission: each refusal is an attempted
// and failed op, none is dropped or retried.
func TestRefusedRequestCountsAsFailed(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"code":429,"message":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	cl := newClient(ts.URL, nil)
	plan := servePlan{requests: 6, hot: 1, block: 6, policies: 2, fig3: 1, pairs: 1, quantum: 20_000, warmup: 20_000}
	_, seq := serveSequence(plan, 3)
	outs, _ := sendAll(context.Background(), seq, 1000, 2, func(i int, r serveReq, accept func()) outcome {
		return request(context.Background(), cl, r, accept)
	})
	rep := &report{}
	if ok := account(rep, seq, outs, nil); len(ok) != 0 {
		t.Errorf("%d refused requests counted as succeeded", len(ok))
	}
	if n := int(posts.Load()); rep.ops != len(seq) || rep.failed != len(seq) || n != len(seq) {
		t.Errorf("ops %d failed %d posts %d, want %d of each", rep.ops, rep.failed, n, len(seq))
	}
}

// TestServeSequence checks the request sequence's shape: the block's
// counts, fresh keys that never repeat except as the duplicate right
// after their primary, and misses spaced so one ends before the next.
func TestServeSequence(t *testing.T) {
	p := servePlanFor(20, false)
	hot, seq := serveSequence(p, 7)
	if len(seq) != p.requests || len(hot) != p.hot {
		t.Fatalf("%d requests and %d hot keys, want %d and %d", len(seq), len(hot), p.requests, p.hot)
	}
	hotSeeds := map[int64]bool{}
	for _, h := range hot {
		hotSeeds[*h.Seed] = true
	}
	fresh := map[int64]bool{}
	counts := map[string]int{}
	spacing := p.block / (p.policies + p.fig3 + p.pairs)
	last := -p.block
	for i, r := range seq {
		counts[r.kind]++
		switch r.kind {
		case kindHot:
			if !hotSeeds[*r.req.Seed] {
				t.Errorf("request %d: hot repeat of a key outside the hot set", i)
			}
		case kindDup:
			if r.pair != i-1 || seq[i-1].kind != kindPrimary || *seq[i-1].req.Seed != *r.req.Seed {
				t.Errorf("request %d: duplicate does not follow its primary", i)
			}
		default:
			if fresh[*r.req.Seed] || hotSeeds[*r.req.Seed] {
				t.Errorf("request %d: fresh seed %d repeats", i, *r.req.Seed)
			}
			fresh[*r.req.Seed] = true
			if i-last < spacing {
				t.Errorf("request %d: miss only %d requests after the previous one", i, i-last)
			}
			last = i
		}
	}
	blocks := p.requests / p.block
	if counts[kindFresh] != blocks*(p.policies+p.fig3) || counts[kindPrimary] != blocks*p.pairs || counts[kindDup] != blocks*p.pairs {
		t.Errorf("counts %v for %d blocks", counts, blocks)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		kind        string
		st          api.JobStatus
		wantFailure bool
	}{
		{kind: kindHot, st: api.JobStatus{Status: api.StatusDone, Cached: true}},
		{kind: kindHot, st: api.JobStatus{Status: api.StatusQueued}, wantFailure: true},
		{kind: kindFresh, st: api.JobStatus{Status: api.StatusQueued}},
		{kind: kindFresh, st: api.JobStatus{Status: api.StatusDone, Cached: true}, wantFailure: true},
		{kind: kindDup, st: api.JobStatus{Status: api.StatusRunning, Coalesced: true}},
		{kind: kindDup, st: api.JobStatus{Status: api.StatusDone, Cached: true}, wantFailure: true},
	} {
		if err := classify(c.kind, &c.st); (err != nil) != c.wantFailure {
			t.Errorf("classify(%s, %+v) = %v", c.kind, c.st, err)
		}
	}
}

func TestCheckQuantum(t *testing.T) {
	res := &sim.Result{Cycles: 100, Threads: []sim.ThreadResult{
		{Name: "v", Breakdown: stats.Breakdown{NormalCycles: 60, CoolingCycles: 30, SedationCycles: 10}}}}
	if err := checkQuantum(res, 100); err != nil {
		t.Errorf("consistent quantum rejected: %v", err)
	}
	if err := checkQuantum(res, 200); err == nil {
		t.Error("short quantum accepted")
	}
	res.Threads[0].Breakdown.SedationCycles = 11
	if err := checkQuantum(res, 100); err == nil {
		t.Error("breakdown not summing to the quantum accepted")
	}
}

func tinyParams(t *testing.T, traced bool) params {
	return params{seed: 5, seconds: 1, traced: traced, outDir: t.TempDir(), log: io.Discard}
}

// TestTinyRuns runs every workload at a tiny size, untraced and
// traced: every output check passes, every end-to-end metric is
// measured, and the replicas match sim so the split is available.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	runs := map[string]func(ctx context.Context, p params) (*report, error){
		"attack-quanta": func(ctx context.Context, p params) (*report, error) {
			plan := attackPlanFor(1, p.traced)
			plan.warmup, plan.rounds, plan.setups = 40_000, 4, 1
			return attackRun(ctx, p, plan)
		},
		"die-sweep": func(ctx context.Context, p params) (*report, error) {
			plan := diePlanFor(1, p.traced)
			plan.dies, plan.victims, plan.quantum, plan.warmup, plan.setups = []int{2}, []string{"crafty"}, 40_000, 20_000, 1
			return dieRun(ctx, p, plan)
		},
		"serve-mix": func(ctx context.Context, p params) (*report, error) {
			plan := servePlanFor(1, p.traced)
			plan.requests, plan.rate, plan.quantum, plan.warmup, plan.setups = 100, 200, 20_000, 20_000, 1
			return serveRun(ctx, p, plan)
		},
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), tinyParams(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if rep.ops == 0 || rep.failed != 0 || len(rep.checkErrs) != 0 || rep.digest == "" {
				t.Errorf("%s traced=%t: ops %d failed %d checks %v digest %q", name, traced, rep.ops, rep.failed, rep.checkErrs, rep.digest)
			}
			if _, err := buildResult(rep, traced, 1); err != nil {
				t.Errorf("%s traced=%t: %v", name, traced, err)
			}
			if traced && rep.metrics["trace.split_available"] != 1 {
				t.Errorf("%s: traced split unavailable", name)
			}
		}
	}
}

// TestReplicaMatchesSim is the shadow-loop equivalence on a short
// single-core run and a short two-core run: the replica built from the
// layers' public constructors reproduces sim's committed counts, stall
// cycles and peak temperatures exactly, quantum after quantum.
func TestReplicaMatchesSim(t *testing.T) {
	cfg := config.Default()
	v2, err := workload.VariantForScale(2, cfg.Thermal.Scale)
	if err != nil {
		t.Fatal(err)
	}
	crafty, err := workload.Spec("crafty", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []dtm.Kind{dtm.StopAndGo, dtm.SelectiveSedation} {
		s, err := sim.New(cfg, []sim.Thread{{Name: "crafty", Prog: crafty}, {Name: "v2", Prog: v2}},
			sim.Options{Policy: pol, WarmupCycles: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		var clk layerClock
		r, err := newReplica(replicaSpec{cfg: cfg, progs: [][]*isa.Program{{crafty, v2}}, policy: pol, warmup: 100_000}, &clk)
		if err != nil {
			t.Fatal(err)
		}
		var acted int64 // cycles the policy stalled or sedated
		for q := 0; q < 3; q++ {
			want, err := s.RunCycles(200_000)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run(200_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := matchSingle(got, want); err != nil {
				t.Errorf("1-core %s quantum %d: %v", pol, q, err)
			}
			// The sedation monitor's averages steer later quanta; they
			// must match too, not just this quantum's outcome.
			for tid := 0; tid < 2; tid++ {
				for _, u := range power.Units() {
					if a, b := r.cores[0].mon.Raw(tid, u), s.Monitor().Raw(tid, u); a != b {
						t.Errorf("1-core %s quantum %d: thread %d %s average %d, sim %d", pol, q, tid, u, a, b)
					}
				}
			}
			acted += want.StopGoCycles + want.Threads[1].Breakdown.SedationCycles
		}
		if acted == 0 {
			t.Errorf("1-core %s: the policy never acted, so the run proves little", pol)
		}
		if clk.cycles != 600_000 || clk.warmups != 1 || clk.buildInits != 1 || clk.steps != 30 {
			t.Errorf("1-core %s: clock counted %+v", pol, clk)
		}
	}

	plan := diePlanFor(1, false)
	plan.quantum, plan.warmup = 200_000, 100_000
	for _, name := range []string{experiment.NameDTMScope, experiment.NameNeighborHeat} {
		jobs, err := dieJobs(plan, 9, name, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			want, err := j.run()
			if err != nil {
				t.Fatal(err)
			}
			var clk layerClock
			r, err := newReplica(j.spec(), &clk)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run(j.cfg.Run.QuantumCycles)
			if err != nil {
				t.Fatal(err)
			}
			if err := matchMulti(got, want); err != nil {
				t.Errorf("2-core %s %s: %v", name, j.key, err)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics a run prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		got  []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.got), len(c.defs))
		}
		for i, d := range c.defs {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
