package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// spanNames collects the span-name histogram of a trace.
func spanNames(spans []tracing.Span) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// TestTraceEndpointEndToEnd runs one job and requires its trace —
// addressed by job id and by trace id alike — to contain the full
// request-path taxonomy: the job root, the retroactive cache.lookup
// and queue.wait children, the experiment.run wrapper, one sweep.job
// per simulation, and sim.quantum leaves from inside the simulator.
func TestTraceEndpointEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)

	code, st := submit(t, ts, tinyRequest())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	if st.TraceID == "" {
		t.Fatal("JobStatus.TraceID empty: tracing should be on by default")
	}
	if len(st.TraceID) != 32 {
		t.Fatalf("TraceID %q is not 32 hex chars", st.TraceID)
	}
	final := waitStatus(t, ts, st.ID, api.StatusDone)
	if final.TraceID != st.TraceID {
		t.Fatalf("terminal TraceID %q != submit TraceID %q", final.TraceID, st.TraceID)
	}

	resp, err := http.Get(ts.URL + "/v1/traces/" + st.ID) // 64-hex job id
	if err != nil {
		t.Fatal(err)
	}
	var tr api.Trace
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("trace by job id: %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.TraceID != st.TraceID {
		t.Fatalf("trace id %q, want %q", tr.TraceID, st.TraceID)
	}

	names := spanNames(tr.Spans)
	for _, want := range []string{"job", "cache.lookup", "queue.wait", "experiment.run", "sweep.job", "sim.quantum"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q spans; have %v", want, names)
		}
	}
	// fig3 over one benchmark runs 4 simulations; each is a sweep.job
	// with at least one sim.quantum under it.
	if names["sweep.job"] < 4 {
		t.Errorf("sweep.job spans = %d, want >= 4", names["sweep.job"])
	}
	if names["sim.quantum"] < names["sweep.job"] {
		t.Errorf("sim.quantum spans = %d, want >= %d (one per sweep job)", names["sim.quantum"], names["sweep.job"])
	}

	// Every span shares the trace, the root is the job span, and all
	// others reach the root through their parent ids.
	byID := make(map[string]tracing.Span, len(tr.Spans))
	var root tracing.Span
	for _, sp := range tr.Spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.TraceID, st.TraceID)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %s ends before it starts", sp.Name)
		}
		byID[sp.SpanID] = sp
		if sp.Name == "job" {
			root = sp
		}
	}
	if root.ParentID != "" {
		t.Fatalf("job root has parent %q, want none", root.ParentID)
	}
	for _, sp := range tr.Spans {
		cur, hops := sp, 0
		for cur.ParentID != "" {
			next, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("span %s has dangling parent %s", sp.Name, cur.ParentID)
			}
			cur = next
			if hops++; hops > len(tr.Spans) {
				t.Fatalf("parent cycle reaching from %s", sp.Name)
			}
		}
		if cur.SpanID != root.SpanID {
			t.Fatalf("span %s does not root at the job span", sp.Name)
		}
	}

	// The same trace resolves by its 32-hex trace id.
	resp2, err := http.Get(ts.URL + "/v1/traces/" + st.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("trace by trace id: %d", resp2.StatusCode)
	}

	// The recorder counters are live on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mbody), "heatstroked_trace_spans_total") {
		t.Error("/metrics missing heatstroked_trace_spans_total")
	}
	if strings.Contains(string(mbody), "heatstroked_trace_spans_total 0\n") {
		t.Error("heatstroked_trace_spans_total still 0 after a traced job")
	}
	if !strings.Contains(string(mbody), "heatstroked_trace_spans_dropped_total") {
		t.Error("/metrics missing heatstroked_trace_spans_dropped_total")
	}
}

// TestTraceJoinsClientTraceparent: a submit carrying a W3C traceparent
// header lands the job span in the caller's trace, under the caller's
// span.
func TestTraceJoinsClientTraceparent(t *testing.T) {
	_, ts := newTestServer(t, nil)

	parent := tracing.SpanContext{
		TraceID: tracing.NewTraceID(),
		SpanID:  tracing.NewSpanID(),
		Flags:   tracing.FlagSampled,
	}
	body, _ := json.Marshal(tinyRequest())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != parent.TraceID.String() {
		t.Fatalf("job trace %q, want the caller's %q", st.TraceID, parent.TraceID.String())
	}
	waitStatus(t, ts, st.ID, api.StatusDone)

	tresp, err := http.Get(ts.URL + "/v1/traces/" + st.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tr api.Trace
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tr.Spans {
		if sp.Name == "job" {
			found = true
			if sp.ParentID != parent.SpanID.String() {
				t.Fatalf("job span parent %q, want the caller's span %q", sp.ParentID, parent.SpanID.String())
			}
		}
	}
	if !found {
		t.Fatal("no job span in the joined trace")
	}
}

// TestTracingDisabled: with a negative TraceCapacity the wire surface
// degrades cleanly — no TraceID on statuses, 404 from the trace
// endpoint — and jobs still run.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) { o.TraceCapacity = -1 })

	_, st := submit(t, ts, tinyRequest())
	if st.TraceID != "" {
		t.Fatalf("TraceID %q with tracing disabled, want empty", st.TraceID)
	}
	waitStatus(t, ts, st.ID, api.StatusDone)
	resp, err := http.Get(ts.URL + "/v1/traces/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint returned %d with tracing disabled, want 404", resp.StatusCode)
	}
}

// lockedBuffer is a log sink safe for the handler goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerOptionLogLevel exercises the Options plumbing end to end:
// a Logger at Debug level receives the per-request access lines
// (logged at Debug).
func TestServerOptionLogLevel(t *testing.T) {
	var buf lockedBuffer
	_, ts := newTestServer(t, func(o *Options) {
		o.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	})
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	// The request line is logged after the response is written, so poll
	// briefly instead of racing the handler goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for {
		text := buf.String()
		if strings.Contains(text, "msg=request") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no Debug request line reached a Debug-level Logger:\n%s", text)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
