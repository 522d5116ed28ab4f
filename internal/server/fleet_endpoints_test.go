package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

func doReq(t *testing.T, method, url string, body []byte, header http.Header) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestCancelRunningJob: DELETE /v1/jobs/{id} on an in-flight job
// drives it to canceled, and a later identical submit re-runs it
// (canceled entries are evicted, not served).
func TestCancelRunningJob(t *testing.T) {
	gate := make(chan struct{})
	var once bool
	_, ts := newTestServer(t, func(o *Options) {
		o.BeforeRun = func(id string) {
			if !once {
				once = true
				<-gate
			}
		}
	})
	code, st := submit(t, ts, tinyRequest())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, st.ID, api.StatusRunning)

	resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	// Release the held job: its run context is already canceled, so
	// the sweep stops before simulating.
	close(gate)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := getJob(t, ts, st.ID)
		if got.Status == api.StatusCanceled {
			break
		}
		if got.Status.Terminal() {
			t.Fatalf("job ended %s, want canceled", got.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never canceled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancel of a terminal job is an idempotent no-op.
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel: %d", resp.StatusCode)
	}
	// The canceled entry is stale: the identical request runs afresh.
	code, st2 := submit(t, ts, tinyRequest())
	if code != http.StatusAccepted || st2.Cached || st2.Coalesced {
		t.Fatalf("resubmit after cancel: code=%d cached=%v coalesced=%v", code, st2.Cached, st2.Coalesced)
	}
	waitStatus(t, ts, st2.ID, api.StatusDone)

	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/nope", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %d", resp.StatusCode)
	}
}

// TestCancelQueuedJob: a job canceled while still waiting for a run
// slot terminates without ever simulating.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, func(o *Options) {
		o.MaxConcurrent = 1
		o.BeforeRun = func(id string) { <-gate }
	})
	defer close(gate)

	_, blocker := submit(t, ts, tinyRequest())
	waitStatus(t, ts, blocker.ID, api.StatusRunning)
	req2 := tinyRequest()
	req2.Benchmarks = []string{"mcf"}
	_, queued := submit(t, ts, req2)

	resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, queued.ID).Status != api.StatusCanceled {
		if time.Now().After(deadline) {
			t.Fatal("queued job never canceled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.Stats(); st.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (canceled queued job must not simulate)", st.Runs)
	}
}

// TestStatsAdvertiseAndWarmKeys: /v1/stats reports the advertised
// address and, once a warmed job has run, the resident warm keys — the
// discovery half of fleet snapshot shipping.
func TestStatsAdvertiseAndWarmKeys(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(o *Options) {
		o.Advertise = "node7.fleet:8080"
		o.WarmupCacheDir = dir
	})
	st := s.Stats()
	if st.Advertise != "node7.fleet:8080" {
		t.Fatalf("advertise = %q", st.Advertise)
	}
	if len(st.WarmKeys) != 0 {
		t.Fatalf("warm keys before any job: %v", st.WarmKeys)
	}
	code, job := submit(t, ts, tinyRequest())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, job.ID, api.StatusDone)
	st = s.Stats()
	if len(st.WarmKeys) == 0 {
		t.Fatal("no warm keys advertised after a warmed job")
	}
	for _, k := range st.WarmKeys {
		if !validWarmKey(k) {
			t.Fatalf("advertised warm key %q is not a sha256 hex digest", k)
		}
	}
}

// TestWarmTransferRoundTrip ships a warm record between two
// daemons over the wire and proves the receiver serves warm reuse from
// it: GET from the source, PUT to the target, then a job on the target
// hits the warmup cache instead of re-warming.
func TestWarmTransferRoundTrip(t *testing.T) {
	src, srcTS := newTestServer(t, func(o *Options) { o.WarmupCacheDir = t.TempDir() })
	code, job := submit(t, srcTS, tinyRequest())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, srcTS, job.ID, api.StatusDone)
	keys := src.Stats().WarmKeys
	if len(keys) == 0 {
		t.Fatal("source advertises no warm keys")
	}

	tgt, tgtTS := newTestServer(t, func(o *Options) { o.WarmupCacheDir = t.TempDir() })
	for _, key := range keys {
		resp, snap := doReq(t, http.MethodGet, srcTS.URL+"/v1/warm/"+key, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET warm %s: %d", key, resp.StatusCode)
		}
		resp, body := doReq(t, http.MethodPut, tgtTS.URL+"/v1/warm/"+key, snap, nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT warm %s: %d %s", key, resp.StatusCode, body)
		}
	}
	got := tgt.Stats().WarmKeys
	if len(got) != len(keys) {
		t.Fatalf("target warm keys = %v, want %v", got, keys)
	}

	before := tgt.met.warmHits.Value()
	code, job = submit(t, tgtTS, tinyRequest())
	if code != http.StatusAccepted {
		t.Fatalf("target submit: %d", code)
	}
	waitStatus(t, tgtTS, job.ID, api.StatusDone)
	if after := tgt.met.warmHits.Value(); after <= before {
		t.Fatalf("target ran without hitting the shipped warm snapshots (hits %d -> %d)", before, after)
	}

	// The transfer endpoints reject garbage rather than caching it.
	resp, _ := doReq(t, http.MethodPut, tgtTS.URL+"/v1/warm/"+keys[0], []byte("not a snapshot"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn PUT: %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, srcTS.URL+"/v1/warm/"+"ab12", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short key: %d, want 400", resp.StatusCode)
	}
	miss := "0000000000000000000000000000000000000000000000000000000000000000"
	resp, _ = doReq(t, http.MethodGet, srcTS.URL+"/v1/warm/"+miss, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key: %d, want 404", resp.StatusCode)
	}
}

// TestWarmTransferAuth: with a fleet token configured, the transfer
// endpoints demand it; the rest of the API stays open.
func TestWarmTransferAuth(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) {
		o.WarmupCacheDir = t.TempDir()
		o.FleetToken = "sekrit"
	})
	key := "1111111111111111111111111111111111111111111111111111111111111111"
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/warm/"+key, nil, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/warm/"+key, nil,
		http.Header{"Authorization": {"Bearer wrong"}})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/warm/"+key, nil,
		http.Header{"Authorization": {"Bearer sekrit"}})
	if resp.StatusCode != http.StatusNotFound { // authorized; key just absent
		t.Fatalf("right token: %d, want 404", resp.StatusCode)
	}
	// A daemon without a warmup cache has nothing to transfer.
	_, bare := newTestServer(t, nil)
	resp, _ = doReq(t, http.MethodGet, bare.URL+"/v1/warm/"+key, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no warm store: %d, want 404", resp.StatusCode)
	}
}
