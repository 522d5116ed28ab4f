// Package client is the typed Go client for the heatstroked
// experiment daemon (internal/server). It covers the full API:
// submitting content-addressed jobs, polling status, streaming live
// progress over SSE, fetching rendered artifacts, and listing the
// experiment registry. cmd/heatstroke's -server passthrough mode is
// built on it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// RetryPolicy governs the client's automatic retries of transient
// server responses: 429 (queue backpressure), 502, and 503. Retried
// requests are safe to repeat — the daemon content-addresses
// submissions, so a duplicate POST joins the original job rather than
// starting another simulation. Transport-level errors are NOT retried:
// a fleet coordinator wants an unreachable worker to surface
// immediately so it can re-dispatch, and plain callers see the real
// error.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms). Attempt
	// n waits a uniformly jittered [0, BaseDelay*2^n), capped at
	// MaxDelay — full jitter, so synchronized clients (a sweep fan-out
	// hitting one 429ing daemon) spread out instead of re-colliding.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff wait (default 5s).
	MaxDelay time.Duration
}

// DefaultRetry is the policy used when Client.Retry is nil.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

// delay computes the jittered wait before retry number attempt
// (0-based), honouring a Retry-After header when the server sent one:
// an explicit Retry-After is the server's own pacing and is used
// verbatim (still capped at MaxDelay).
func (p RetryPolicy) delay(attempt int, retryAfter string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > p.MaxDelay {
			return p.MaxDelay
		}
		return d
	}
	if t, err := http.ParseTime(retryAfter); err == nil {
		if d := time.Until(t); d > 0 {
			if d > p.MaxDelay {
				return p.MaxDelay
			}
			return d
		}
		return 0
	}
	ceil := p.BaseDelay << uint(attempt)
	if ceil <= 0 || ceil > p.MaxDelay {
		ceil = p.MaxDelay
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// retryableStatus reports whether a response status is worth retrying.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// Client talks to one heatstroked daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. SSE streams live on
	// long-running requests, so it must not set a global Timeout;
	// cancel via context instead.
	HTTPClient *http.Client
	// PollInterval paces Wait's status polling when the event stream
	// is unavailable (default 500ms).
	PollInterval time.Duration
	// Retry configures transient-failure retries (nil = DefaultRetry;
	// &RetryPolicy{MaxAttempts: 1} disables them). Every wait is
	// context-bounded: a cancelled context ends the retry budget
	// immediately, whatever the policy says.
	Retry *RetryPolicy
	// Token, when set, is sent as "Authorization: Bearer <Token>" on
	// every request (the daemon's fleet-token gate on /v1/warm).
	Token string
	// Tracer, when set, records client-side spans (client.submit,
	// client.wait, client.artifact) whose contexts propagate to the
	// daemon as W3C traceparent headers, parenting the server's job
	// span under the client's. A nil Tracer costs nothing: requests
	// still propagate any span context already present on the caller's
	// context, so the client composes with an ambient tracer either
	// way.
	Tracer *tracing.Tracer
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) retry() RetryPolicy {
	p := DefaultRetry
	if c.Retry != nil {
		p = *c.Retry
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetry.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetry.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetry.MaxDelay
	}
	return p
}

// traceCtx folds the client's Tracer into ctx (when set and ctx does
// not already carry one), so spans opened by client methods record
// into it.
func (c *Client) traceCtx(ctx context.Context) context.Context {
	if c.Tracer != nil && tracing.TracerFrom(ctx) == nil {
		ctx = tracing.ContextWithTracer(ctx, c.Tracer)
	}
	return ctx
}

// do issues one API request with the retry policy applied: transient
// statuses (429/502/503) are retried with jittered exponential backoff
// honouring Retry-After, until the policy's attempt budget or the
// context runs out. When the context carries a span (the caller's or
// one opened by a client method), its W3C traceparent rides on the
// request so the daemon joins the same trace. The caller owns the
// returned response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, error) {
	pol := c.retry()
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.Token != "" {
			req.Header.Set("Authorization", "Bearer "+c.Token)
		}
		if sc, ok := tracing.SpanContextFrom(ctx); ok && sc.Valid() {
			req.Header.Set("traceparent", sc.Traceparent())
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return nil, err
		}
		if !retryableStatus(resp.StatusCode) || attempt+1 >= pol.MaxAttempts {
			return resp, nil
		}
		wait := pol.delay(attempt, resp.Header.Get("Retry-After"))
		// Drain so the connection is reusable, then back off.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// apiError converts a non-2xx response into an error, decoding the
// server's JSON envelope when present.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var e api.Error
	if err := json.Unmarshal(body, &e); err == nil && e.Message != "" {
		return fmt.Errorf("client: server returned %d: %s", resp.StatusCode, e.Message)
	}
	return fmt.Errorf("client: server returned %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job. The returned status may already be terminal
// (Cached) or joined to an in-flight run (Coalesced); identical
// requests always return the same job ID. A 429 (queue backpressure)
// is retried under the client's RetryPolicy — resubmission is safe
// because identical requests content-address to one job.
func (c *Client) Submit(ctx context.Context, jr api.JobRequest) (*api.JobStatus, error) {
	ctx, sp := tracing.StartSpan(c.traceCtx(ctx), "client.submit")
	sp.SetAttr("experiment", jr.Experiment)
	st, err := c.submit(ctx, jr)
	if err == nil {
		sp.SetAttr("job", shortID(st.ID))
	}
	sp.EndErr(err)
	return st, err
}

func (c *Client) submit(ctx context.Context, jr api.JobRequest) (*api.JobStatus, error) {
	body, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, "application/json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// Cancel aborts a queued or running job (DELETE /v1/jobs/{id}).
// Cancellation is asynchronous: the returned snapshot may still be
// running; poll or Wait for the terminal canceled state. The fleet
// coordinator uses this to put down the losing side of a hedged
// dispatch.
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// FetchWarm downloads a warm record — one core's or one die's
// post-warmup state (GET /v1/warm/{key}) — in the sim.WriteWarm wire
// form, the bytes of a .warm file, suitable for PutWarm on another
// daemon.
func (c *Client) FetchWarm(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/warm/"+key, nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// PutWarm installs a warm record (PUT /v1/warm/{key}) on the daemon,
// making its warm key servable there without re-warming. The daemon
// decodes the record before installing it and rejects a malformed
// one.
func (c *Client) PutWarm(ctx context.Context, key string, record []byte) error {
	resp, err := c.do(ctx, http.MethodPut, "/v1/warm/"+key, record, "application/octet-stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Artifact fetches a completed job's rendered table in the given
// format ("table", "json", or "csv"; empty means "table").
func (c *Client) Artifact(ctx context.Context, id, format string) ([]byte, error) {
	ctx, sp := tracing.StartSpan(c.traceCtx(ctx), "client.artifact")
	sp.SetAttr("job", shortID(id))
	path := "/v1/jobs/" + id + "/artifact"
	if format != "" {
		path += "?format=" + format
	}
	resp, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := apiError(resp)
		sp.EndErr(err)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	sp.EndErr(err)
	return body, err
}

// Trace fetches every span of one trace known to the serving node
// (GET /v1/traces/{id}); id may be a 32-hex W3C trace id or a 64-hex
// job id. Against a fleet coordinator the response is stitched from
// the coordinator's own spans plus every reachable worker's.
func (c *Client) Trace(ctx context.Context, id string) (*api.Trace, error) {
	var tr api.Trace
	if err := c.getJSON(ctx, "/v1/traces/"+id, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Experiments lists the daemon's experiment registry.
func (c *Client) Experiments(ctx context.Context) ([]api.ExperimentInfo, error) {
	var infos []api.ExperimentInfo
	if err := c.getJSON(ctx, "/v1/experiments", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Stats fetches the daemon's serving counters.
func (c *Client) Stats(ctx context.Context) (*api.Stats, error) {
	var st api.Stats
	if err := c.getJSON(ctx, "/v1/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Metrics fetches the daemon's Prometheus text-format exposition
// (GET /metrics), returned verbatim.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Healthy checks the liveness endpoint. It deliberately skips the
// retry policy: health probes want the instantaneous truth.
func (c *Client) Healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return nil
}

// Events consumes a job's SSE progress stream, calling fn for each
// event until the stream ends (terminal "done" event), fn returns an
// error, or ctx is cancelled. A nil return means the terminal event
// was received.
func (c *Client) Events(ctx context.Context, id string, fn func(api.Event) error) error {
	// The retrying path covers the connection handshake (a 503 from a
	// restarting daemon); once the stream is up, breaks surface to the
	// caller, which falls back to polling (see Wait).
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // event-type lines and heartbeat comments
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("client: bad event frame: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == "done" {
			return nil
		}
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("client: event stream: %w", err)
	}
	return fmt.Errorf("client: event stream ended without a terminal event")
}

// Wait blocks until the job reaches a terminal state, reporting live
// progress through onProgress (which may be nil). It prefers the SSE
// stream and falls back to status polling if streaming fails.
func (c *Client) Wait(ctx context.Context, id string, onProgress func(api.Progress)) (*api.JobStatus, error) {
	ctx, sp := tracing.StartSpan(c.traceCtx(ctx), "client.wait")
	sp.SetAttr("job", shortID(id))
	st, err := c.wait(ctx, id, onProgress)
	sp.EndErr(err)
	return st, err
}

func (c *Client) wait(ctx context.Context, id string, onProgress func(api.Progress)) (*api.JobStatus, error) {
	err := c.Events(ctx, id, func(ev api.Event) error {
		if ev.Type == "progress" && ev.Progress != nil && onProgress != nil {
			onProgress(*ev.Progress)
		}
		return nil
	})
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Whether the stream delivered the terminal event or broke, the
	// status endpoint is authoritative; poll it until terminal.
	interval := c.PollInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if onProgress != nil {
			onProgress(st.Progress)
		}
		if st.Status.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
