// Package tracing is a zero-dependency distributed-tracing layer for
// the heatstroke serving stack: W3C trace-context identifiers and
// traceparent encoding, request-scoped spans with parent links, a
// bounded lock-cheap per-process span buffer, and NDJSON + Perfetto
// exporters. It exists so a single job's latency story — client
// submit, coordinator dispatch (including retries and hedges), worker
// queue wait, warmup build and reuse, and each simulated
// measurement quantum — is one causally linked timeline instead of a
// pile of aggregate counters.
//
// Everything is allocation-free when tracing is off: StartSpan on a
// context with no tracer is a pair of context lookups and returns a
// nil *ActiveSpan, whose methods are all nil-safe no-ops. Spans never
// feed back into simulation state, so enabling tracing cannot perturb
// results (enforced by the determinism guard tests).
package tracing

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
)

// TraceID is the 16-byte W3C trace-id shared by every span of one
// request.
type TraceID [16]byte

// SpanID is the 8-byte W3C span/parent id of a single span.
type SpanID [8]byte

// IsZero reports whether the id is all zeroes (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is all zeroes (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		rand.Read(t[:])
	}
	return t
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		rand.Read(s[:])
	}
	return s
}

// FlagSampled is the traceparent sampled flag bit.
const FlagSampled = 0x01

// SpanContext identifies one span's position in a trace: the trace it
// belongs to, its own id, and the trace flags. It is the unit of
// propagation — what crosses process boundaries in the traceparent
// header and what children parent under.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both ids are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the W3C version-00 header value:
// 00-<trace-id>-<parent-id>-<flags>.
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", sc.TraceID, sc.SpanID, sc.Flags)
}

// parseHex decodes exactly len(dst)*2 lowercase hex characters.
// Uppercase hex is invalid per the W3C trace-context spec.
func parseHex(dst, src []byte) bool {
	if len(src) != len(dst)*2 {
		return false
	}
	for _, c := range src {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, src)
	return err == nil
}

// ParseTraceparent parses a W3C traceparent header value. Per the
// spec it rejects: a version of "ff" or non-hex, an all-zero trace-id
// or parent-id, wrong field lengths, and (for version 00) trailing
// fields. Future versions are accepted if their first four fields
// parse, ignoring anything after.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	// version(2) '-' traceid(32) '-' spanid(16) '-' flags(2) = 55.
	if len(s) < 55 {
		return sc, fmt.Errorf("tracing: traceparent too short (%d chars)", len(s))
	}
	var version [1]byte
	if !parseHex(version[:], []byte(s[0:2])) || version[0] == 0xff {
		return sc, fmt.Errorf("tracing: invalid traceparent version %q", s[0:2])
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, fmt.Errorf("tracing: malformed traceparent %q", s)
	}
	if !parseHex(sc.TraceID[:], []byte(s[3:35])) {
		return SpanContext{}, fmt.Errorf("tracing: invalid trace-id %q", s[3:35])
	}
	if sc.TraceID.IsZero() {
		return SpanContext{}, fmt.Errorf("tracing: all-zero trace-id")
	}
	if !parseHex(sc.SpanID[:], []byte(s[36:52])) {
		return SpanContext{}, fmt.Errorf("tracing: invalid parent-id %q", s[36:52])
	}
	if sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("tracing: all-zero parent-id")
	}
	var flags [1]byte
	if !parseHex(flags[:], []byte(s[53:55])) {
		return SpanContext{}, fmt.Errorf("tracing: invalid trace-flags %q", s[53:55])
	}
	sc.Flags = flags[0]
	switch {
	case version[0] == 0 && len(s) != 55:
		return SpanContext{}, fmt.Errorf("tracing: version 00 traceparent has trailing data")
	case version[0] != 0 && len(s) > 55 && s[55] != '-':
		return SpanContext{}, fmt.Errorf("tracing: malformed traceparent %q", s)
	}
	return sc, nil
}

// Link is a causal reference from one span to another that is not its
// parent: a retried attempt points at the attempt it replaces, a
// hedged dispatch at the primary it races, a job at the warmup build
// whose state it reused.
type Link struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Kind    string `json:"kind,omitempty"`
}

// Link kinds used by the instrumentation.
const (
	LinkRetry     = "retry"      // this attempt replaces the linked failed attempt
	LinkHedge     = "hedge"      // this dispatch races the linked primary
	LinkWarmReuse = "warm_reuse" // this job reused the linked warmup build's state
)

// Span is one completed timed operation. IDs are rendered as lowercase
// hex strings so the wire form (NDJSON, /v1/traces) needs no further
// encoding and stitching across nodes is plain string comparison.
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Service  string            `json:"service,omitempty"`
	Start    int64             `json:"start_unix_ns"`
	End      int64             `json:"end_unix_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Links    []Link            `json:"links,omitempty"`
}

// Context returns the span's identity as a SpanContext (zero if the
// hex ids do not parse).
func (s *Span) Context() SpanContext {
	var sc SpanContext
	if !parseHex(sc.TraceID[:], []byte(s.TraceID)) || !parseHex(sc.SpanID[:], []byte(s.SpanID)) {
		return SpanContext{}
	}
	sc.Flags = FlagSampled
	return sc
}
