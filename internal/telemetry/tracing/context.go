package tracing

import (
	"context"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	activeKey
	remoteKey
)

// ContextWithTracer returns a context carrying the tracer. StartSpan
// is a no-op (and allocation-free) on contexts without one.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextWithRemote returns a context carrying a span context received
// from another process (a parsed traceparent header). Spans started
// under it parent there, joining the remote trace.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// Active returns the context's active span, or nil. The nil
// *ActiveSpan is a valid receiver for every method.
func Active(ctx context.Context) *ActiveSpan {
	a, _ := ctx.Value(activeKey).(*ActiveSpan)
	return a
}

// SpanContextFrom returns the span context the current operation runs
// under: the active span if one is open, else a remote parent carried
// by ContextWithRemote. Used to stamp outgoing traceparent headers.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if a := Active(ctx); a != nil {
		return a.Context(), true
	}
	sc, ok := ctx.Value(remoteKey).(SpanContext)
	return sc, ok && sc.Valid()
}

// ActiveSpan is an open span being timed. It is created by StartSpan
// and recorded into the tracer by End. Methods on a nil receiver are
// no-ops, so instrumented code never branches on whether tracing is
// enabled. An ActiveSpan is intended for use by the goroutine that
// started it (plus End-after-attrs ordering within that goroutine);
// concurrent children each start their own span.
type ActiveSpan struct {
	tracer *Tracer
	sc     SpanContext
	span   Span
	ended  bool
}

// Context returns the span's identity (zero for a nil span).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return a.sc
}

// SetAttr attaches a string attribute.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[k] = v
}

// Link attaches a causal link (retry, hedge, warm reuse) to
// another span.
func (a *ActiveSpan) Link(sc SpanContext, kind string) {
	if a == nil || !sc.Valid() {
		return
	}
	a.span.Links = append(a.span.Links, Link{
		TraceID: sc.TraceID.String(),
		SpanID:  sc.SpanID.String(),
		Kind:    kind,
	})
}

// End stamps the end time and records the span. Safe to call more
// than once; only the first call records.
func (a *ActiveSpan) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.End = time.Now().UnixNano()
	a.tracer.Record(a.span)
}

// EndErr ends the span, attaching the error as an attribute when
// non-nil.
func (a *ActiveSpan) EndErr(err error) {
	if a == nil {
		return
	}
	if err != nil {
		a.SetAttr("error", err.Error())
	}
	a.End()
}

// StartSpan opens a span named name. If the context carries no tracer
// this is a no-op costing two context lookups and zero allocations,
// returning ctx unchanged and a nil span. Otherwise the span parents
// under the context's active span, or a remote span context, or —
// with neither — starts a new trace with a fresh trace id.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := SpanContextFrom(ctx)
	sc := SpanContext{SpanID: NewSpanID(), Flags: FlagSampled}
	parentID := ""
	if parent.Valid() {
		sc.TraceID = parent.TraceID
		sc.Flags = parent.Flags | FlagSampled
		parentID = parent.SpanID.String()
	} else {
		sc.TraceID = NewTraceID()
	}
	a := &ActiveSpan{
		tracer: t,
		sc:     sc,
		span: Span{
			TraceID:  sc.TraceID.String(),
			SpanID:   sc.SpanID.String(),
			ParentID: parentID,
			Name:     name,
			Start:    time.Now().UnixNano(),
		},
	}
	return context.WithValue(ctx, activeKey, a), a
}
