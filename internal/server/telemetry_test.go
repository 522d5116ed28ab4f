package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// expositionLine matches one valid Prometheus text-format line (the
// same shape the CI smoke check enforces).
var expositionLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN))$`)

// TestMetricsEndpoint runs a job (plus a cache-hit repeat), scrapes
// GET /metrics, and checks the exposition is well-formed and carries
// the daemon's serving counters with the right values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, st := submit(t, ts, tinyRequest())
	waitStatus(t, ts, st.ID, api.StatusDone)
	if code, st2 := submit(t, ts, tinyRequest()); code != http.StatusOK || !st2.Cached {
		t.Fatalf("repeat submit: code=%d cached=%v", code, st2.Cached)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
		if !strings.HasPrefix(line, "#") {
			series[strings.Fields(line)[0]] = true
		}
	}
	if len(series) < 10 {
		t.Errorf("only %d series exposed: %v", len(series), series)
	}

	// The tiny fig3 job runs 4 simulations; the repeat was a pure hit.
	for line, want := range map[string]bool{
		"heatstroked_jobs_submitted_total 2":         true,
		"heatstroked_cache_hits_total 1":             true,
		"heatstroked_cache_misses_total 1":           true,
		"heatstroked_jobs_rejected_total 0":          true,
		"heatstroked_singleflight_coalesced_total 0": true,
		`heatstroked_jobs_total{outcome="done"} 1`:   true,
		`heatstroked_jobs_total{outcome="failed"} 0`: true,
		`heatstroked_sims_total{outcome="ok"} 4`:     true,
		"heatstroked_job_duration_seconds_count 1":   true,
		"heatstroked_sim_duration_seconds_count 4":   true,
		`heatstroked_build_info{version="test"} 1`:   true,
		"heatstroked_queue_depth 0":                  true,
		"heatstroked_jobs_in_flight 0":               true,
		"heatstroked_jobs_tracked 1":                 true,
	} {
		if want && !strings.Contains(text, line+"\n") {
			t.Errorf("missing series %q in exposition:\n%s", line, text)
		}
	}
}

// blockedWriter is a ResponseWriter whose first Write blocks until the
// gate opens, simulating a subscriber that cannot keep up.
type blockedWriter struct {
	gate <-chan struct{}

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *blockedWriter) Header() http.Header { return http.Header{} }
func (w *blockedWriter) WriteHeader(int)     {}
func (w *blockedWriter) Flush()              {}
func (w *blockedWriter) Write(b []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}
func (w *blockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSSESlowSubscriber overflows a subscriber's 32-event buffer while
// its writer is stalled: intermediate progress frames may drop (by
// design), but the stream must still terminate with a "done" frame —
// synthesized from the terminal snapshot when the broadcast one was
// among the casualties. It drives the job record and the events route
// that the daemon and the fleet coordinator both serve.
func TestSSESlowSubscriber(t *testing.T) {
	j := NewJob("slow", tinyRequest())
	j.Start()
	mux := http.NewServeMux()
	JobRoutes(mux, func(id string) *Job {
		if id == j.ID {
			return j
		}
		return nil
	})

	gate := make(chan struct{})
	w := &blockedWriter{gate: gate}
	req := httptest.NewRequest("GET", "/v1/jobs/slow/events", nil)
	served := make(chan struct{})
	go func() {
		mux.ServeHTTP(w, req)
		close(served)
	}()

	// Wait for the handler to subscribe, then flood it: far more
	// progress events than the channel buffer holds, then the terminal
	// broadcast — all while its writer is stuck.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 100; i++ {
		j.Progress(func(p *api.Progress) bool {
			p.Completed, p.Total = i, 100
			return true
		})
	}
	j.Finish(api.StatusDone, nil, "")
	close(gate)
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not finish")
	}

	var events []api.Event
	for _, line := range strings.Split(w.String(), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev api.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			events = append(events, ev)
		}
	}
	if len(events) == 0 || len(events) > 34 {
		// 1 subscribe snapshot + at most 32 buffered + 1 terminal.
		t.Fatalf("%d frames delivered", len(events))
	}
	if len(events) >= 100 {
		t.Fatal("no events were dropped; the test did not overflow the buffer")
	}
	final := events[len(events)-1]
	if final.Type != "done" || final.Job == nil || final.Job.Status != api.StatusDone {
		t.Fatalf("stream did not end with a terminal frame: %+v", final)
	}
}

// TestStatsShape pins the /v1/stats wire contract.
func TestStatsShape(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, st := submit(t, ts, tinyRequest())
	waitStatus(t, ts, st.ID, api.StatusDone)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"submitted", "runs", "cache_hits", "coalesced", "rejected", "queued", "running", "jobs"} {
		v, ok := raw[key]
		if !ok {
			t.Errorf("stats missing %q: %v", key, raw)
			continue
		}
		if _, ok := v.(float64); !ok {
			t.Errorf("stats[%q] = %T, want number", key, v)
		}
	}
	if raw["submitted"].(float64) != 1 || raw["runs"].(float64) != 1 || raw["jobs"].(float64) != 1 {
		t.Errorf("stats after one job: %v", raw)
	}
}

// TestReadyzShape pins /readyz: plain "ready" while serving, a JSON
// error envelope with 503 once shutdown begins.
func TestReadyzShape(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("readyz: %d %q", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d", resp.StatusCode)
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != http.StatusServiceUnavailable || apiErr.Message == "" {
		t.Errorf("error envelope %+v", apiErr)
	}
}
