package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
	"github.com/heatstroke-sim/heatstroke/pkg/client"
)

// testVersion pins the code version on workers, coordinator, and the
// single-node reference so job IDs and warm keys alias everywhere.
const testVersion = "fleet-test"

// tinyBase is a machine configuration small enough for unit tests.
func tinyBase() config.Config {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 60_000
	return cfg
}

// tinyRequest is the canonical test job: fig3 on one benchmark, a few
// hundred ms of simulation.
func tinyRequest() api.JobRequest {
	seed := int64(7)
	return api.JobRequest{
		Experiment: "fig3",
		Benchmarks: []string{"crafty"},
		Quantum:    60_000,
		Warmup:     1_000,
		Seed:       &seed,
	}
}

type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

// kill simulates a SIGKILL'd worker process from the network's point
// of view: the listener stops accepting and every established
// connection is severed. The in-process server.Server is deliberately
// left running — like a real partitioned host, it keeps simulating
// into the void.
func (tw *testWorker) kill() {
	tw.ts.Listener.Close()
	tw.ts.CloseClientConnections()
}

func startWorker(t testing.TB, mutate func(*server.Options)) *testWorker {
	t.Helper()
	o := server.Options{
		MaxConcurrent: 2,
		Parallelism:   1,
		Version:       testVersion,
		BaseConfig:    tinyBase,
	}
	if mutate != nil {
		mutate(&o)
	}
	srv, err := server.New(o)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cl := client.New(ts.URL)
	cl.PollInterval = 50 * time.Millisecond
	return &testWorker{srv: srv, ts: ts, cl: cl}
}

func startFleet(t testing.TB, workers []*testWorker, mutate func(*Options)) (*Coordinator, *client.Client) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	o := Options{
		Workers:      urls,
		HedgeAfter:   -1, // tests opt in explicitly
		PollInterval: 100 * time.Millisecond,
		Version:      testVersion,
		BaseConfig:   tinyBase,
	}
	if mutate != nil {
		mutate(&o)
	}
	c, err := New(o)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	cl := client.New(ts.URL)
	cl.PollInterval = 50 * time.Millisecond
	return c, cl
}

// runToArtifact submits a request, waits for done, and returns the
// CSV artifact bytes.
func runToArtifact(t testing.TB, cl *client.Client, req api.JobRequest) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !st.Status.Terminal() {
		st, err = cl.Wait(ctx, st.ID, nil)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	if st.Status != api.StatusDone {
		t.Fatalf("job %s finished %s: %s", st.ID, st.Status, st.Error)
	}
	body, err := cl.Artifact(ctx, st.ID, "csv")
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	return body
}

// TestFleetFaultInjectionByteIdentical is the ISSUE's acceptance test:
// kill a worker mid-job (after the job started running there), let the
// coordinator retry on the surviving replica, and require the final
// artifact to be byte-identical to a single-node run of the same
// request — determinism makes worker death invisible in the result.
func TestFleetFaultInjectionByteIdentical(t *testing.T) {
	want := runToArtifact(t, startWorker(t, nil).cl, tinyRequest())

	// Two fleet workers; whichever one starts running the job first is
	// killed from inside its BeforeRun hook — precisely "mid-job".
	var killed int32
	var workers [2]*testWorker
	for i := range workers {
		i := i
		workers[i] = startWorker(t, func(o *server.Options) {
			o.BeforeRun = func(string) {
				if atomic.CompareAndSwapInt32(&killed, 0, int32(i)+1) {
					workers[i].kill()
				}
			}
		})
	}
	c, fcl := startFleet(t, workers[:], nil)

	got := runToArtifact(t, fcl, tinyRequest())
	if !bytes.Equal(got, want) {
		t.Fatalf("retried fleet artifact differs from single-node run:\nfleet:\n%s\nsingle:\n%s", got, want)
	}
	if atomic.LoadInt32(&killed) == 0 {
		t.Fatal("fault was never injected: no worker ran the job")
	}
	if r := c.met.retries.Value(); r < 1 {
		t.Fatalf("retries = %d, want >= 1 (the kill must have forced a re-dispatch)", r)
	}
	st := c.Stats()
	if st.Retries < 1 {
		t.Fatalf("FleetStats.Retries = %d, want >= 1", st.Retries)
	}
}

// TestFleetHedgeStraggler: the first worker to pick the job up stalls
// indefinitely; after HedgeAfter the coordinator duplicates the job
// onto the second replica, the duplicate wins, and the straggling
// loser is cancelled on its worker.
func TestFleetHedgeStraggler(t *testing.T) {
	want := runToArtifact(t, startWorker(t, nil).cl, tinyRequest())

	gate := make(chan struct{})
	var gated int32 // 1-based index of the stalled worker
	var workers [2]*testWorker
	for i := range workers {
		i := i
		workers[i] = startWorker(t, func(o *server.Options) {
			o.BeforeRun = func(string) {
				if atomic.CompareAndSwapInt32(&gated, 0, int32(i)+1) {
					<-gate
				}
			}
		})
	}
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	c, fcl := startFleet(t, workers[:], func(o *Options) {
		o.HedgeAfter = 200 * time.Millisecond
	})

	got := runToArtifact(t, fcl, tinyRequest())
	if !bytes.Equal(got, want) {
		t.Fatalf("hedged artifact differs from single-node run")
	}
	if h := c.met.hedges.Value(); h != 1 {
		t.Fatalf("hedges = %d, want 1", h)
	}
	if hw := c.met.hedgeWins.Value(); hw != 1 {
		t.Fatalf("hedgeWins = %d, want 1 (the stalled primary cannot have won)", hw)
	}

	// The loser must have been cancelled server-side. Release the gate
	// so its sweep observes the already-cancelled context, then watch
	// it reach canceled on its own worker.
	close(gate)
	loser := workers[atomic.LoadInt32(&gated)-1]
	_, id, err := server.Resolve(testVersion, tinyBase, tinyRequest())
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := loser.cl.Job(context.Background(), id)
		if err == nil && st.Status.Terminal() {
			if st.Status != api.StatusCanceled {
				t.Fatalf("loser finished %s, want canceled", st.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loser never reached a terminal state")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetWarmShipping: a warm key created on worker A is shipped to
// worker B when a job needing it lands there — B's warmup cache hits
// without B ever having run the warmup.
func TestFleetWarmShipping(t *testing.T) {
	wA := startWorker(t, func(o *server.Options) { o.WarmupCacheDir = t.TempDir() })
	wB := startWorker(t, func(o *server.Options) { o.WarmupCacheDir = t.TempDir() })
	c, fcl := startFleet(t, []*testWorker{wA, wB}, nil)

	// Warm keys are quantum-agnostic, job IDs are not: jobs at
	// different quanta share a warm key but are distinct cache entries.
	// Find two quanta whose jobs place on A then B, so the second
	// dispatch must ship A's snapshot to B.
	ring := NewRing(0)
	ring.Add(wA.ts.URL)
	ring.Add(wB.ts.URL)
	pick := func(wantURL string, startQuantum int64) api.JobRequest {
		for q := startQuantum; ; q += 1_000 {
			req := tinyRequest()
			req.Quantum = q
			_, id, err := server.Resolve(testVersion, tinyBase, req)
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if owner, _ := ring.Owner(id); owner == wantURL {
				return req
			}
		}
	}

	runToArtifact(t, fcl, pick(wA.ts.URL, 60_000))
	// Refresh A's advertised warm keys so the coordinator knows it can
	// source the snapshot from A.
	c.mu.Lock()
	a := c.workers[wA.ts.URL]
	c.mu.Unlock()
	c.pollWorker(a)

	hitsBefore := workerWarmHits(t, wB.cl)
	runToArtifact(t, fcl, pick(wB.ts.URL, 90_000))
	if s := c.met.warmShipped.Value(); s < 1 {
		t.Fatalf("warmShipped = %d, want >= 1", s)
	}
	if hits := workerWarmHits(t, wB.cl); hits <= hitsBefore {
		t.Fatalf("worker B warm hits %v -> %v: shipped snapshot was not used", hitsBefore, hits)
	}
}

func workerWarmHits(t testing.TB, cl *client.Client) float64 {
	t.Helper()
	body, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return promSum(body, "heatstroked_warmup_cache_hits_total")
}

// TestFleetMembershipAndCache: workers join and leave over the HTTP
// membership API, and the coordinator's own content-addressed cache
// answers repeat submissions without touching the workers.
func TestFleetMembershipAndCache(t *testing.T) {
	w1 := startWorker(t, nil)
	w2 := startWorker(t, nil)
	c, fcl := startFleet(t, []*testWorker{w1}, nil)
	base := strings.TrimRight(fcl.BaseURL, "/")

	// Join w2 over the API.
	regBody, _ := json.Marshal(api.WorkerRegistration{URL: w2.ts.URL})
	resp, err := http.Post(base+"/v1/workers", "application/json", bytes.NewReader(regBody))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	var infos []api.WorkerInfo
	listResp, err := http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := json.NewDecoder(listResp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode workers: %v", err)
	}
	listResp.Body.Close()
	if len(infos) != 2 || !infos[0].Healthy || !infos[1].Healthy {
		t.Fatalf("workers = %+v, want 2 healthy", infos)
	}

	// Run a job, then resubmit it: the coordinator itself is the cache.
	runToArtifact(t, fcl, tinyRequest())
	st, err := fcl.Submit(context.Background(), tinyRequest())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st.Cached || st.Status != api.StatusDone {
		t.Fatalf("resubmit = %+v, want cached done", st)
	}
	if c.met.cacheHits.Value() != 1 {
		t.Fatalf("cacheHits = %d, want 1", c.met.cacheHits.Value())
	}

	// Leave.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/workers?url="+w2.ts.URL, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil || delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("leave: %v %v", err, delResp.Status)
	}
	delResp.Body.Close()
	if got := c.Stats(); len(got.Workers) != 1 {
		t.Fatalf("after leave: %d workers, want 1", len(got.Workers))
	}
}

// TestFleetMetricsAggregation: the coordinator /metrics carries its
// own series plus every worker's, with worker labels injected and each
// family header emitted once.
func TestFleetMetricsAggregation(t *testing.T) {
	w1 := startWorker(t, func(o *server.Options) { o.Advertise = "worker-one" })
	w2 := startWorker(t, func(o *server.Options) { o.Advertise = "worker-two" })
	_, fcl := startFleet(t, []*testWorker{w1, w2}, nil)
	runToArtifact(t, fcl, tinyRequest())

	body, err := fcl.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"fleet_jobs_submitted_total 1",
		"fleet_workers 2",
		`heatstroked_jobs_submitted_total{worker="worker-one"}`,
		`heatstroked_jobs_submitted_total{worker="worker-two"}`,
		`heatstroked_jobs_total{worker="worker-one",outcome="done"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged exposition missing %q", want)
		}
	}
	if n := strings.Count(text, "# HELP heatstroked_jobs_submitted_total"); n != 1 {
		t.Errorf("HELP emitted %d times, want once", n)
	}
	// The exposition format demands contiguous families: no family
	// name may appear in two separate HELP blocks.
	if n := strings.Count(text, "# TYPE heatstroked_sims_total"); n != 1 {
		t.Errorf("TYPE heatstroked_sims_total emitted %d times, want once", n)
	}
}

// TestFleetSSEProxy: the coordinator's event stream delivers progress
// and a terminal done frame for a proxied job.
func TestFleetSSEProxy(t *testing.T) {
	w := startWorker(t, nil)
	_, fcl := startFleet(t, []*testWorker{w}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := fcl.Submit(ctx, tinyRequest())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var progress, done int
	err = fcl.Events(ctx, st.ID, func(ev api.Event) error {
		switch ev.Type {
		case "progress":
			progress++
		case "done":
			done++
			if ev.Job == nil || ev.Job.Status != api.StatusDone {
				return fmt.Errorf("bad terminal frame: %+v", ev)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if progress == 0 || done != 1 {
		t.Fatalf("progress=%d done=%d, want progress>0 done=1", progress, done)
	}
}

// TestFleetNoWorkers: a coordinator with zero reachable workers fails
// jobs cleanly and reports not-ready.
func TestFleetNoWorkers(t *testing.T) {
	c, fcl := startFleet(t, nil, nil)
	st, err := fcl.Submit(context.Background(), tinyRequest())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := fcl.Wait(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != api.StatusFailed || !strings.Contains(final.Error, "no healthy workers") {
		t.Fatalf("job = %+v, want failed with no-healthy-workers", final)
	}
	_ = c
	resp, err := http.Get(strings.TrimRight(fcl.BaseURL, "/") + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503 with no workers", resp.StatusCode)
	}
}

// TestFleetFrontEndParity: on the routes the coordinator shares with a
// daemon it answers with the daemon's exact status code and bytes, so
// a client cannot tell the two apart.
func TestFleetFrontEndParity(t *testing.T) {
	w := startWorker(t, nil)
	_, fcl := startFleet(t, []*testWorker{w}, nil)
	unknown := "/v1/jobs/" + strings.Repeat("0", 64)
	for _, tc := range []struct {
		name, method, path, body string
		code                     int
	}{
		{"experiments", "GET", "/v1/experiments", "", http.StatusOK},
		{"unknown job status", "GET", unknown, "", http.StatusNotFound},
		{"unknown job events", "GET", unknown + "/events", "", http.StatusNotFound},
		{"unknown job artifact", "GET", unknown + "/artifact", "", http.StatusNotFound},
		{"unknown job trace", "GET", "/v1/traces/" + strings.Repeat("0", 64), "", http.StatusNotFound},
		{"malformed submit", "POST", "/v1/jobs", `{"experiment":`, http.StatusBadRequest},
		{"unknown experiment", "POST", "/v1/jobs", `{"experiment":"fig99"}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			get := func(base string) (int, []byte) {
				req, err := http.NewRequest(tc.method, strings.TrimRight(base, "/")+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, body
			}
			dCode, dBody := get(w.ts.URL)
			cCode, cBody := get(fcl.BaseURL)
			if dCode != tc.code {
				t.Fatalf("daemon answered %d, want %d: %s", dCode, tc.code, dBody)
			}
			if cCode != dCode || !bytes.Equal(cBody, dBody) {
				t.Fatalf("coordinator answered %d %s\ndaemon answered %d %s", cCode, cBody, dCode, dBody)
			}
		})
	}
}
