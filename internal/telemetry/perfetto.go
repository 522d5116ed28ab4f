package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
)

// TraceOptions configure the Perfetto (Chrome trace-event JSON)
// export. Open the output in ui.perfetto.dev or chrome://tracing.
//
// Track layout: one named track per hardware thread (tid 0..N-1)
// carrying its sedation slices and OS-report instants; one "dtm" track
// (tid N) carrying stop-and-go slices, emergency trips, and threshold
// crossings; plus per-unit temperature and chip-power counter tracks
// fed by the sensor-interval samples.
type TraceOptions struct {
	// Process names the process track (default "heatstroke").
	Process string
	// FrequencyHz converts cycles to trace microseconds; it must be
	// positive (use the run's cfg.Power.FrequencyHz).
	FrequencyHz float64
	// ThreadNames label the per-thread tracks; tid i is ThreadNames[i].
	ThreadNames []string
	// Events is the DTM event timeline (sim.Result.Events).
	Events []Event
	// Samples, when non-nil, adds temperature and power counters (one
	// value per sample, from sim.Result.Samples).
	Samples []trace.Sample
	// Units selects the temperature counter tracks (nil = all units).
	Units []power.Unit
}

// traceEvent is one Chrome trace-event object. Field order is fixed
// by the struct, and args maps are rendered with sorted keys, so the
// export is byte-deterministic for a deterministic run.
type traceEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	S    string             `json:"s,omitempty"`
	Args map[string]float64 `json:"args,omitempty"`
}

// metaEvent is a trace metadata record (process/thread names).
type metaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

const perfettoPid = 1

// TraceEventWriter streams a Chrome trace-event JSON document: the
// {"displayTimeUnit":"ms","traceEvents":[...]} envelope with one
// marshalled event per line and the comma discipline handled here.
// It is shared by the run exporter (WritePerfetto) and the distributed
// tracing span exporter, so both produce the same document shape.
type TraceEventWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewTraceEventWriter opens the trace-event envelope on w.
func NewTraceEventWriter(w io.Writer) *TraceEventWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return &TraceEventWriter{bw: bw, first: true}
}

// Emit marshals one event object into the traceEvents array.
func (tw *TraceEventWriter) Emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !tw.first {
		tw.bw.WriteString(",\n")
	}
	tw.first = false
	tw.bw.Write(b)
	return nil
}

// Close ends the traceEvents array and flushes the document.
func (tw *TraceEventWriter) Close() error {
	tw.bw.WriteString("\n]}\n")
	return tw.bw.Flush()
}

// WritePerfetto renders the run as Chrome trace-event JSON.
func WritePerfetto(w io.Writer, o TraceOptions) error {
	if o.FrequencyHz <= 0 {
		return fmt.Errorf("telemetry: perfetto export needs a positive FrequencyHz, got %g", o.FrequencyHz)
	}
	if o.Process == "" {
		o.Process = "heatstroke"
	}
	if o.Units == nil {
		o.Units = power.Units()
	}
	ts := func(cycle int64) float64 { return float64(cycle) / o.FrequencyHz * 1e6 }
	dtmTid := len(o.ThreadNames)

	tw := NewTraceEventWriter(w)
	emit := tw.Emit

	// Metadata: process and thread names.
	if err := emit(metaEvent{Name: "process_name", Ph: "M", Pid: perfettoPid,
		Args: map[string]string{"name": o.Process}}); err != nil {
		return err
	}
	for tid, name := range o.ThreadNames {
		if err := emit(metaEvent{Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: tid,
			Args: map[string]string{"name": fmt.Sprintf("t%d %s", tid, name)}}); err != nil {
			return err
		}
	}
	if err := emit(metaEvent{Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: dtmTid,
		Args: map[string]string{"name": "dtm"}}); err != nil {
		return err
	}

	// The event timeline. Sedation B/E slices open on a thread's first
	// sedation and close on its resume (a thread sedated for several
	// units stays one slice); stop-and-go brackets become slices on the
	// dtm track; everything else renders as instants.
	lastTs := 0.0
	sedated := make(map[int]bool)
	stopgoOpen := false
	for _, ev := range o.Events {
		t := ts(ev.Cycle)
		if t > lastTs {
			lastTs = t
		}
		switch ev.Kind {
		case KindSedate:
			if ev.Thread >= 0 && !sedated[ev.Thread] {
				sedated[ev.Thread] = true
				if err := emit(traceEvent{Name: "sedated", Ph: "B", Ts: t, Pid: perfettoPid, Tid: ev.Thread,
					Args: map[string]float64{"rate": ev.Rate, "temp_k": ev.TempK}}); err != nil {
					return err
				}
			}
		case KindResume:
			if ev.Thread >= 0 && sedated[ev.Thread] {
				sedated[ev.Thread] = false
				if err := emit(traceEvent{Name: "sedated", Ph: "E", Ts: t, Pid: perfettoPid, Tid: ev.Thread}); err != nil {
					return err
				}
			}
		case KindStopGoEngage:
			if !stopgoOpen {
				stopgoOpen = true
				if err := emit(traceEvent{Name: "stop-and-go", Ph: "B", Ts: t, Pid: perfettoPid, Tid: dtmTid,
					Args: map[string]float64{"temp_k": ev.TempK}}); err != nil {
					return err
				}
			}
		case KindStopGoRelease:
			if stopgoOpen {
				stopgoOpen = false
				if err := emit(traceEvent{Name: "stop-and-go", Ph: "E", Ts: t, Pid: perfettoPid, Tid: dtmTid}); err != nil {
					return err
				}
			}
		case KindOSReport:
			tid := ev.Thread
			if tid < 0 {
				tid = dtmTid
			}
			if err := emit(traceEvent{Name: "os_report " + ev.Unit, Ph: "i", Ts: t, Pid: perfettoPid, Tid: tid, S: "t",
				Args: map[string]float64{"rate": ev.Rate}}); err != nil {
				return err
			}
		default: // threshold crossings, emergencies: instants on the dtm track
			name := string(ev.Kind)
			if ev.Unit != "" {
				name += " " + ev.Unit
			}
			te := traceEvent{Name: name, Ph: "i", Ts: t, Pid: perfettoPid, Tid: dtmTid, S: "t"}
			if ev.TempK != 0 {
				te.Args = map[string]float64{"temp_k": ev.TempK}
			}
			if err := emit(te); err != nil {
				return err
			}
		}
	}

	// Counter tracks from the sensor-interval samples.
	for i := range o.Samples {
		s := &o.Samples[i]
		t := ts(s.Cycle)
		if t > lastTs {
			lastTs = t
		}
		for _, u := range o.Units {
			if err := emit(traceEvent{Name: "temp_" + u.String() + "_K", Ph: "C", Ts: t, Pid: perfettoPid,
				Args: map[string]float64{"K": s.UnitTempK[u]}}); err != nil {
				return err
			}
		}
		if err := emit(traceEvent{Name: "power_W", Ph: "C", Ts: t, Pid: perfettoPid,
			Args: map[string]float64{"W": s.TotalPowerW}}); err != nil {
			return err
		}
	}

	// Close any slice still open so the trace has no dangling begins.
	for tid := 0; tid < len(o.ThreadNames); tid++ {
		if sedated[tid] {
			if err := emit(traceEvent{Name: "sedated", Ph: "E", Ts: lastTs, Pid: perfettoPid, Tid: tid}); err != nil {
				return err
			}
		}
	}
	if stopgoOpen {
		if err := emit(traceEvent{Name: "stop-and-go", Ph: "E", Ts: lastTs, Pid: perfettoPid, Tid: dtmTid}); err != nil {
			return err
		}
	}

	return tw.Close()
}
