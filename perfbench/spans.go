package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
)

// Span names of the traced split. An op span (one round or one job)
// parents one span per layer holding that layer's summed call time in
// the op; sim.warmup parents the re-anchoring thermal.init. Layer spans
// are laid end to end from the op's start, so an op's self time is the
// time no layer call covers: sim's own bookkeeping.
const (
	spanCPU      = "cpu"
	spanCore     = "core"
	spanPower    = "power"
	spanStep     = "thermal.step"
	spanInit     = "thermal.init"
	spanDTM      = "dtm"
	spanWarmup   = "sim.warmup"
	spanCapacity = 1 << 17
)

// spanLog keeps a traced run's spans in memory, under one trace id.
type spanLog struct {
	tr    *tracing.Tracer
	trace tracing.TraceID
}

func newSpanLog() *spanLog {
	return &spanLog{tr: tracing.NewTracer("perfbench", spanCapacity), trace: tracing.NewTraceID()}
}

// op records one op span over [start, end] and, from d, its layer
// spans. extra attrs (simulated instructions, stall cycles) ride on
// the cpu span.
func (l *spanLog) op(name string, start, end time.Time, d layerClock, attrs, cpuAttrs map[string]string) {
	root := tracing.SpanContext{TraceID: l.trace, SpanID: tracing.NewSpanID(), Flags: tracing.FlagSampled}
	l.tr.Record(tracing.Span{TraceID: l.trace.String(), SpanID: root.SpanID.String(), Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Attrs: attrs})
	at := start.UnixNano()
	child := func(parent tracing.SpanContext, name string, dur time.Duration, calls int64, attrs map[string]string) tracing.SpanContext {
		if calls == 0 {
			return tracing.SpanContext{}
		}
		if attrs == nil {
			attrs = map[string]string{}
		}
		attrs["calls"] = strconv.FormatInt(calls, 10)
		return l.tr.Emit(parent, name, at, at+int64(dur), attrs)
	}
	advance := func(dur time.Duration) { at += int64(dur) }

	child(root, spanInit, d.initBuild, d.buildInits, nil)
	advance(d.initBuild)
	w := child(root, spanWarmup, d.warmup, d.warmups, nil)
	child(w, spanInit, d.initWarm, d.warmups, nil)
	advance(d.warmup)
	if cpuAttrs == nil {
		cpuAttrs = map[string]string{}
	}
	cpuAttrs["cycles"] = strconv.FormatInt(d.cycles, 10)
	for _, s := range []struct {
		name  string
		dur   time.Duration
		calls int64
		attrs map[string]string
	}{
		{spanCPU, d.cpu, d.samples, cpuAttrs},
		{spanCore, d.core, d.samples, nil},
		{spanPower, d.power, d.intervals, nil},
		{spanStep, d.step, d.steps, nil},
		{spanDTM, d.dtm, d.ticks, nil},
	} {
		child(root, s.name, s.dur, s.calls, s.attrs)
		advance(s.dur)
	}
}

// spans returns every recorded span.
func (l *spanLog) spans() []tracing.Span { return l.tr.All() }

// write saves the spans as NDJSON and as Perfetto trace-event JSON.
func (l *spanLog) write(dir, base string) error {
	spans := l.spans()
	if dropped := l.tr.Dropped(); dropped > 0 {
		return fmt.Errorf("span buffer dropped %d spans", dropped)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, base+".ndjson"), spans, tracing.WriteNDJSON); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, base+".perfetto.json"), spans, tracing.WritePerfetto)
}

func writeSpans(path string, spans []tracing.Span, enc func(io.Writer, []tracing.Span) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := enc(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span id to the span's duration minus the part of
// its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []tracing.Span) map[string]int64 {
	kids := make(map[string][][2]int64)
	for _, s := range spans {
		if s.ParentID != "" {
			kids[s.ParentID] = append(kids[s.ParentID], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		out[s.SpanID] = s.End - s.Start - covered(s.Start, s.End, kids[s.SpanID])
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, x := range clipped {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// layerMetrics sums the layer spans of a traced run into the per-layer
// split: busy time and call counts per layer, and the self time of the
// op spans named op as sim.other_s.
func layerMetrics(spans []tracing.Span, op string) map[string]float64 {
	self := selfTimes(spans)
	busy := map[string]int64{}
	calls := map[string]int64{}
	attr := map[string]int64{}
	var other int64
	for _, s := range spans {
		if s.Name == op {
			other += self[s.SpanID]
			continue
		}
		busy[s.Name] += s.End - s.Start
		calls[s.Name] += atoi(s.Attrs["calls"])
		if s.Name == spanCPU {
			for _, k := range []string{"cycles", "insts", "stalled"} {
				attr[k] += atoi(s.Attrs[k])
			}
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	per := func(ns, n int64, unit float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / unit
	}
	return map[string]float64{
		"cpu.busy_s":          sec(busy[spanCPU]),
		"cpu.cycles":          float64(attr["cycles"]),
		"cpu.ns_per_cycle":    per(busy[spanCPU], attr["cycles"], 1),
		"cpu.insts":           float64(attr["insts"]),
		"cpu.stall_frac":      per(attr["stalled"], attr["cycles"], 1),
		"sim.warmup_s":        sec(busy[spanWarmup]),
		"thermal.init_busy_s": sec(busy[spanInit]),
		"thermal.inits":       float64(calls[spanInit]),
		"thermal.init_ms":     per(busy[spanInit], calls[spanInit], 1e6),
		"thermal.step_busy_s": sec(busy[spanStep]),
		"thermal.steps":       float64(calls[spanStep]),
		"thermal.step_us":     per(busy[spanStep], calls[spanStep], 1e3),
		"core.busy_s":         sec(busy[spanCore]),
		"core.samples":        float64(calls[spanCore]),
		"power.busy_s":        sec(busy[spanPower]),
		"power.intervals":     float64(calls[spanPower]),
		"dtm.busy_s":          sec(busy[spanDTM]),
		"dtm.ticks":           float64(calls[spanDTM]),
		"sim.other_s":         sec(other),
	}
}

func atoi(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}
