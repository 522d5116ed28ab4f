package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// tinyConfig keeps server tests fast: short quanta at the default
// reproduction scale.
func tinyConfig() config.Config {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 60_000
	return cfg
}

// tinyRequest is the canonical fast job: fig3 over one benchmark runs
// 4 simulations (1 SPEC + 3 variants).
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

func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		MaxConcurrent: 2,
		MaxQueue:      8,
		Parallelism:   2,
		BaseConfig:    tinyConfig,
		Version:       "test",
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req api.JobRequest) (int, api.JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode, st
}

func getJob(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return st
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want api.Status) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, ts, id)
		if st.Status == want {
			return st
		}
		if st.Status.Terminal() {
			t.Fatalf("job reached %s (err=%q), want %s", st.Status, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", want)
	return api.JobStatus{}
}

// TestCoalescingAndCache is the acceptance core: two concurrent
// identical submissions trigger exactly one sweep, and a repeat after
// completion is a pure cache hit.
func TestCoalescingAndCache(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(o *Options) {
		o.BeforeRun = func(id string) {
			entered <- id
			<-release
		}
	})

	code, st1 := submit(t, ts, tinyRequest())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	if st1.Cached || st1.Coalesced {
		t.Fatalf("first submit flagged cached/coalesced: %+v", st1)
	}
	<-entered // the job is now in-flight, held at the gate

	code, st2 := submit(t, ts, tinyRequest())
	if code != http.StatusAccepted {
		t.Fatalf("concurrent submit: %d", code)
	}
	if !st2.Coalesced || st2.ID != st1.ID {
		t.Fatalf("concurrent identical submit not coalesced: %+v", st2)
	}

	close(release)
	done := waitStatus(t, ts, st1.ID, api.StatusDone)
	if done.Summary == nil || done.Summary.Succeeded != 4 {
		t.Fatalf("summary = %+v", done.Summary)
	}
	if done.Progress.Completed != 4 || done.Progress.Total != 4 {
		t.Fatalf("progress = %+v", done.Progress)
	}

	code, st3 := submit(t, ts, tinyRequest())
	if code != http.StatusOK || !st3.Cached {
		t.Fatalf("repeat submit: code=%d status=%+v", code, st3)
	}

	stats := s.Stats()
	if stats.Runs != 1 {
		t.Errorf("runs = %d, want exactly 1 (coalesced + cached)", stats.Runs)
	}
	if stats.Coalesced != 1 || stats.CacheHits != 1 || stats.Submitted != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestContentAddressing: the ID is a function of resolved parameters —
// defaults and explicit-equal values alias, any differing parameter
// does not.
func TestContentAddressing(t *testing.T) {
	s, _ := newTestServer(t, nil)

	base := tinyRequest()
	_, id1, err := Resolve(s.opts.Version, s.opts.BaseConfig, base)
	if err != nil {
		t.Fatal(err)
	}

	// Omitted seed resolves to the config default...
	noSeed := tinyRequest()
	noSeed.Seed = nil
	resolved, idDefault, err := Resolve(s.opts.Version, s.opts.BaseConfig, noSeed)
	if err != nil {
		t.Fatal(err)
	}
	if *resolved.Seed != tinyConfig().Run.Seed {
		t.Errorf("default seed = %d", *resolved.Seed)
	}
	// ...and explicitly requesting that default aliases it.
	explicit := tinyRequest()
	*explicit.Seed = tinyConfig().Run.Seed
	_, idExplicit, err := Resolve(s.opts.Version, s.opts.BaseConfig, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if idDefault != idExplicit {
		t.Error("seed-omitted and seed-explicit-default must share an address")
	}

	// Literal seed 0 is requestable and distinct from the default.
	zero := tinyRequest()
	*zero.Seed = 0
	_, idZero, err := Resolve(s.opts.Version, s.opts.BaseConfig, zero)
	if err != nil {
		t.Fatal(err)
	}
	if idZero == idDefault {
		t.Error("seed 0 must not alias the config default seed")
	}

	distinct := map[string]func(*api.JobRequest){
		"quantum":   func(r *api.JobRequest) { r.Quantum = 70_000 },
		"warmup":    func(r *api.JobRequest) { r.Warmup = 2_000 },
		"scale":     func(r *api.JobRequest) { r.Scale = 32 },
		"benchmark": func(r *api.JobRequest) { r.Benchmarks = []string{"mcf"} },
		"exp":       func(r *api.JobRequest) { r.Experiment = "table1" },
		"cores":     func(r *api.JobRequest) { r.Cores = 2; r.Solver = "grid" },
		"solver":    func(r *api.JobRequest) { r.Solver = "grid" },
	}
	for name, mutate := range distinct {
		req := tinyRequest()
		mutate(&req)
		_, id, err := Resolve(s.opts.Version, s.opts.BaseConfig, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id == id1 {
			t.Errorf("%s change did not change the address", name)
		}
	}

	// A different code version must never alias.
	s2, _ := newTestServer(t, func(o *Options) { o.Version = "test-v2" })
	_, id2, err := Resolve(s2.opts.Version, s2.opts.BaseConfig, base)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Error("different code versions alias")
	}
}

func TestResolveRejects(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for name, req := range map[string]api.JobRequest{
		"unknown experiment": {Experiment: "nope"},
		"unknown benchmark":  {Experiment: "fig3", Benchmarks: []string{"nope"}},
		"negative quantum":   {Experiment: "fig3", Quantum: -1},
		"bad scale":          {Experiment: "fig3", Scale: -3},
		"negative cores":     {Experiment: "fig3", Cores: -1},
		"too many cores":     {Experiment: "fig3", Cores: config.MaxCores + 1},
		"unknown solver":     {Experiment: "fig3", Solver: "magic"},
		"multi-core lumped":  {Experiment: "fig3", Cores: 2, Solver: config.SolverLumped},
	} {
		if _, _, err := Resolve(s.opts.Version, s.opts.BaseConfig, req); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	body := []byte(`{"experiment": 42}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", resp.StatusCode)
	}
}

// TestResolveLeavesCallerSlice: Resolve trims benchmark names in its
// own copy, so the caller's request reads as it did.
func TestResolveLeavesCallerSlice(t *testing.T) {
	var req api.JobRequest
	if err := json.Unmarshal([]byte(`{"experiment":"fig3","benchmarks":[" crafty "]}`), &req); err != nil {
		t.Fatal(err)
	}
	resolved, _, err := Resolve("test", nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resolved.Benchmarks, []string{"crafty"}) {
		t.Errorf("resolved benchmarks %q, want [crafty]", resolved.Benchmarks)
	}
	if !slices.Equal(req.Benchmarks, []string{" crafty "}) {
		t.Errorf("caller's benchmarks now read %q, want [\" crafty \"]", req.Benchmarks)
	}
}

// TestResolveTopology covers the multi-core request surface: registry
// defaults fill into the resolved request, topology overrides change
// the content address, and resolved requests round-trip to the same
// ID.
func TestResolveTopology(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// A multi-core experiment with no overrides resolves to its
	// registry die (2 cores on the grid), and the resolved request
	// re-resolves to the same address.
	resolved, id, err := Resolve(s.opts.Version, s.opts.BaseConfig, api.JobRequest{Experiment: "neighbor-heat"})
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Cores != 2 || resolved.Solver != config.SolverGrid {
		t.Fatalf("resolved topology %d/%q, want 2/grid", resolved.Cores, resolved.Solver)
	}
	again, id2, err := Resolve(s.opts.Version, s.opts.BaseConfig, resolved)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || again.Cores != 2 {
		t.Error("resolved request did not round-trip to the same address")
	}
	// Explicitly asking for the default die aliases the omitted form.
	_, idExplicit, err := Resolve(s.opts.Version, s.opts.BaseConfig, api.JobRequest{Experiment: "neighbor-heat", Cores: 2, Solver: config.SolverGrid})
	if err != nil {
		t.Fatal(err)
	}
	if idExplicit != id {
		t.Error("explicit default topology must alias the omitted form")
	}
	// A bigger die is a different job.
	_, id4, err := Resolve(s.opts.Version, s.opts.BaseConfig, api.JobRequest{Experiment: "neighbor-heat", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if id4 == id {
		t.Error("core count change did not change the address")
	}

	// Single-core experiments keep the base topology untouched.
	single, _, err := Resolve(s.opts.Version, s.opts.BaseConfig, tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if single.Cores != 1 || single.Solver != config.SolverLumped {
		t.Errorf("single-core resolved topology %d/%q", single.Cores, single.Solver)
	}

	// The experiment listing carries each entry's die so clients can
	// see which experiments are multi-core without running them.
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []api.ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]api.ExperimentInfo)
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName["neighbor-heat"]; in.Cores != 2 || in.Solver != config.SolverGrid {
		t.Errorf("listing neighbor-heat = %d/%q, want 2/grid", in.Cores, in.Solver)
	}
	if in := byName["dtm-scope"]; in.Cores != 2 || in.Solver != config.SolverGrid {
		t.Errorf("listing dtm-scope = %d/%q, want 2/grid", in.Cores, in.Solver)
	}
	if in := byName["fig3"]; in.Cores != 1 || in.Solver != config.SolverLumped {
		t.Errorf("listing fig3 = %d/%q, want 1/lumped", in.Cores, in.Solver)
	}
}

// TestSSEMonotonicProgress consumes the events stream of a held job
// and checks the progress frames are monotonic and terminate with a
// done frame carrying the final status.
func TestSSEMonotonicProgress(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, func(o *Options) {
		o.BeforeRun = func(id string) {
			entered <- id
			<-release
		}
	})
	_, st := submit(t, ts, tinyRequest())
	<-entered

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)

	var events []api.Event
	scanner := bufio.NewScanner(resp.Body)
	var evType string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev api.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			if ev.Type != evType {
				t.Errorf("frame type %q does not match event line %q", ev.Type, evType)
			}
			events = append(events, ev)
		}
		if evType == "done" && len(events) > 0 && events[len(events)-1].Type == "done" {
			break
		}
	}
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	last := -1
	for i, ev := range events[:len(events)-1] {
		if ev.Type != "progress" || ev.Progress == nil {
			t.Fatalf("event %d: %+v", i, ev)
		}
		if ev.Progress.Completed < last {
			t.Errorf("progress regressed: %d -> %d", last, ev.Progress.Completed)
		}
		last = ev.Progress.Completed
	}
	final := events[len(events)-1]
	if final.Type != "done" || final.Job == nil || final.Job.Status != api.StatusDone {
		t.Fatalf("final event %+v", final)
	}
	if final.Job.Progress.Completed != 4 || final.Job.Progress.PeakTempK == 0 {
		t.Errorf("final progress %+v", final.Job.Progress)
	}
	// The stream must have seen intermediate progress, not just 0 -> done.
	if last < 1 {
		t.Errorf("no intermediate progress observed (last=%d)", last)
	}
}

// TestBackpressure: with one run slot and a one-deep queue, a third
// distinct job is rejected with 429.
func TestBackpressure(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(o *Options) {
		o.MaxConcurrent = 1
		o.MaxQueue = 1
		o.BeforeRun = func(id string) {
			entered <- id
			<-release
		}
	})
	req1 := tinyRequest()
	code, _ := submit(t, ts, req1)
	if code != http.StatusAccepted {
		t.Fatalf("job1: %d", code)
	}
	<-entered // job1 running (out of the queue)

	req2 := tinyRequest()
	req2.Quantum = 61_000
	if code, _ := submit(t, ts, req2); code != http.StatusAccepted {
		t.Fatalf("job2: %d", code)
	}
	req3 := tinyRequest()
	req3.Quantum = 62_000
	code, _ = submit(t, ts, req3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job3: %d, want 429", code)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// A duplicate of a queued job still coalesces rather than 429ing.
	if code, st := submit(t, ts, req2); code != http.StatusAccepted || !st.Coalesced {
		t.Fatalf("duplicate of queued job: %d %+v", code, st)
	}
	// Release the gate; job2's beforeRun reads the closed channel and
	// its entered signal lands in the buffered channel unobserved.
	close(release)
}

// TestArtifactFormats: the artifact endpoint serves all three
// encodings of a completed table and 409s before completion.
func TestArtifactFormats(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, st := submit(t, ts, tinyRequest())
	waitStatus(t, ts, st.ID, api.StatusDone)

	for format, wantCT := range map[string]string{
		"table": "text/plain; charset=utf-8",
		"json":  "application/json",
		"csv":   "text/csv; charset=utf-8",
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/artifact?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wantCT {
			t.Errorf("%s: code=%d ct=%q", format, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(body.String(), "crafty") {
			t.Errorf("%s artifact missing data:\n%s", format, body.String())
		}
		if format == "json" {
			var tb sweep.Table
			if err := json.Unmarshal(body.Bytes(), &tb); err != nil || tb.Summary == nil {
				t.Errorf("json artifact: err=%v summary=%v", err, tb.Summary)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/artifact?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("yaml: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/nope/artifact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}
}

// TestDiskCachePersistence: a completed result written to -cache-dir is
// served by a fresh server instance without re-simulating.
func TestDiskCachePersistence(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, func(o *Options) { o.CacheDir = dir })
	_, st := submit(t, ts1, tinyRequest())
	done := waitStatus(t, ts1, st.ID, api.StatusDone)
	if s1.Stats().Runs != 1 {
		t.Fatalf("stats = %+v", s1.Stats())
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); err != nil {
		t.Fatalf("record not persisted: %v", err)
	}

	// Restart: same cache dir, same version.
	s2, ts2 := newTestServer(t, func(o *Options) { o.CacheDir = dir })
	code, st2 := submit(t, ts2, tinyRequest())
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("restart repeat: code=%d %+v", code, st2)
	}
	if s2.Stats().Runs != 0 {
		t.Errorf("restarted server re-simulated: %+v", s2.Stats())
	}
	if st2.Summary == nil || st2.Summary.Succeeded != done.Summary.Succeeded {
		t.Errorf("summary lost across restart: %+v", st2.Summary)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/artifact?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), "crafty") {
		t.Errorf("artifact after restart: %d\n%s", resp.StatusCode, body.String())
	}

	// A different code version ignores the old records.
	s3, _ := newTestServer(t, func(o *Options) { o.CacheDir = dir; o.Version = "test-v2" })
	if s3.Stats().Jobs != 0 {
		t.Errorf("stale-version records loaded: %+v", s3.Stats())
	}
}

// TestShutdownDrainsInFlight: shutting down mid-sweep cancels the
// sweep, records a canceled status with a partial summary built from
// the progress events, and persists it.
func TestShutdownDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(o *Options) {
		o.CacheDir = dir
		o.Parallelism = 1
	})
	req := tinyRequest()
	req.Benchmarks = nil  // all SPEC benchmarks + 3 variants
	req.Quantum = 150_000 // wide enough that shutdown lands mid-sweep
	code, st := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Wait for at least one simulation to finish, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cur := getJob(t, ts, st.ID); cur.Progress.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	final := getJob(t, ts, st.ID)
	if final.Status != api.StatusCanceled {
		t.Fatalf("status = %s", final.Status)
	}
	total := final.Progress.Total
	if final.Summary == nil || final.Summary.Succeeded < 1 || total < 4 || final.Summary.Jobs != total {
		t.Fatalf("partial summary = %+v (total %d)", final.Summary, total)
	}
	if final.Summary.Succeeded+final.Summary.Skipped+final.Summary.Failed != total {
		t.Errorf("partial summary does not account for all jobs: %+v", final.Summary)
	}
	if final.Summary.Skipped == 0 {
		t.Errorf("shutdown did not skip any pending simulations: %+v", final.Summary)
	}

	// The partial record is on disk for inspection...
	b, err := os.ReadFile(filepath.Join(dir, st.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != api.StatusCanceled || rec.Summary == nil || rec.Summary.Succeeded < 1 {
		t.Errorf("record = status %s summary %+v", rec.Status, rec.Summary)
	}
	// ...but is not served as a cached result by a fresh server.
	s2, _ := newTestServer(t, func(o *Options) { o.CacheDir = dir })
	if s2.Stats().Jobs != 0 {
		t.Errorf("canceled record loaded as cache: %+v", s2.Stats())
	}

	// Submissions after shutdown are refused.
	if code, _ := submit(t, ts, tinyRequest()); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: %d", code)
	}
}

// TestJobTimeout: a per-job deadline cancels a runaway job, and a
// repeat submission re-runs it instead of serving the failure.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) { o.JobTimeout = time.Millisecond })
	req := tinyRequest()
	req.Quantum = 2_000_000 // long enough that 1ms always expires first
	_, st := submit(t, ts, req)
	deadline := time.Now().Add(60 * time.Second)
	var final api.JobStatus
	for {
		final = getJob(t, ts, st.ID)
		if final.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never terminated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.Status != api.StatusCanceled {
		t.Fatalf("status = %s (err=%q)", final.Status, final.Error)
	}
	// The terminal non-done entry is replaced on resubmission.
	code, st2 := submit(t, ts, req)
	if code != http.StatusAccepted || st2.Cached || st2.Coalesced {
		t.Errorf("resubmit after timeout: %d %+v", code, st2)
	}
}

func TestListingAndHealth(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var infos []api.ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 17 {
		t.Errorf("%d experiments", len(infos))
	}
	for _, in := range infos {
		if in.Name == "" || in.Title == "" || in.Description == "" {
			t.Errorf("incomplete info: %+v", in)
		}
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
	}
}

// TestDeterministicResults: the cached artifact equals a fresh
// server's artifact for the same request — the property that makes
// content addressing sound.
func TestDeterministicResults(t *testing.T) {
	artifact := func() string {
		_, ts := newTestServer(t, nil)
		_, st := submit(t, ts, tinyRequest())
		waitStatus(t, ts, st.ID, api.StatusDone)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/artifact?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := artifact(), artifact()
	if a != b {
		t.Errorf("same request, different artifacts:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "crafty") {
		t.Errorf("artifact: %s", a)
	}
}

// TestDoneIsDurable: a job's record is on disk before anyone can see
// the job terminal — at the instant a subscriber receives the "done"
// event, and at the instant a status poll first reads done.
func TestDoneIsDurable(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan string, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(o *Options) {
		o.CacheDir = dir
		o.BeforeRun = func(id string) {
			entered <- id
			<-release
		}
	})
	_, st := submit(t, ts, tinyRequest())
	<-entered
	ch := s.lookup(st.ID).subscribe()
	close(release)
	sawDone := false
	for ev := range ch {
		if ev.Type != "done" {
			continue
		}
		sawDone = true
		if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); err != nil {
			t.Fatalf("subscriber saw done before the record was on disk: %v", err)
		}
	}
	if !sawDone {
		t.Fatal("subscription closed without a done event")
	}

	req := tinyRequest()
	req.Benchmarks = []string{"mcf"}
	_, st = submit(t, ts, req)
	<-entered // the gate is already open
	deadline := time.Now().Add(60 * time.Second)
	for !getJob(t, ts, st.ID).Status.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); err != nil {
		t.Fatalf("status poll read done before the record was on disk: %v", err)
	}
}
