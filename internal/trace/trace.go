// Package trace holds the full-system time series the simulator samples
// once per sensor interval (sim.Result.Samples) — per-unit temperatures,
// core power, stall state, per-thread progress — and plain functions
// over it: Stride thins it, Summarize aggregates it and WriteCSV
// exports it for plotting.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// Sample is one core's sensor-interval observation.
type Sample struct {
	// Cycle is the core cycle at the end of the interval.
	Cycle int64
	// Stalled reports a global stop-and-go stall in effect on the core
	// as the interval's last chunk began.
	Stalled bool
	// TotalPowerW is the core's power averaged over the interval.
	TotalPowerW float64
	// UnitTempK holds each unit's die temperature.
	UnitTempK [power.NumUnits]float64
	// ThreadIPC is each thread's IPC over the interval.
	ThreadIPC []float64
	// ThreadSedated reports each thread's fetch gate.
	ThreadSedated []bool
}

// MaxTemp returns the hottest unit in the sample.
func (s *Sample) MaxTemp() (power.Unit, float64) {
	best := power.Unit(0)
	bestT := s.UnitTempK[0]
	for u := power.Unit(1); u < power.NumUnits; u++ {
		if s.UnitTempK[u] > bestT {
			best, bestT = u, s.UnitTempK[u]
		}
	}
	return best, bestT
}

// Stride returns every n-th sample, starting with the first. With n
// of 0 or 1 it returns samples itself; otherwise the result is a new
// slice whose elements share their per-thread slices with samples.
func Stride(samples []Sample, n int) []Sample {
	if n <= 1 {
		return samples
	}
	out := make([]Sample, 0, (len(samples)+n-1)/n)
	for i := 0; i < len(samples); i += n {
		out = append(out, samples[i])
	}
	return out
}

// WriteCSV emits the samples with one row per sample. units selects
// the temperature columns (nil = all units).
func WriteCSV(w io.Writer, samples []Sample, units []power.Unit) error {
	if units == nil {
		units = power.Units()
	}
	cols := []string{"cycle", "stalled", "power_w"}
	for _, u := range units {
		cols = append(cols, "temp_"+u.String()+"_k")
	}
	// Size the thread columns to the widest sample, not the first: a
	// series that spans a thread joining mid-run would otherwise emit
	// rows wider than the header. Narrow samples zero-fill below.
	nthreads := 0
	for i := range samples {
		if n := len(samples[i].ThreadIPC); n > nthreads {
			nthreads = n
		}
	}
	for t := 0; t < nthreads; t++ {
		cols = append(cols, fmt.Sprintf("ipc_t%d", t), fmt.Sprintf("sedated_t%d", t))
	}
	if _, err := io.WriteString(w, strings.Join(cols, ",")+"\n"); err != nil {
		return err
	}
	row := make([]string, 0, len(cols))
	for i := range samples {
		s := &samples[i]
		row = row[:0]
		row = append(row,
			strconv.FormatInt(s.Cycle, 10),
			boolBit(s.Stalled),
			strconv.FormatFloat(s.TotalPowerW, 'f', 3, 64),
		)
		for _, u := range units {
			row = append(row, strconv.FormatFloat(s.UnitTempK[u], 'f', 3, 64))
		}
		for t := 0; t < nthreads; t++ {
			ipc, sed := 0.0, false
			if t < len(s.ThreadIPC) {
				ipc = s.ThreadIPC[t]
				sed = s.ThreadSedated[t]
			}
			row = append(row, strconv.FormatFloat(ipc, 'f', 4, 64), boolBit(sed))
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func boolBit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Summary aggregates a series for quick inspection.
type Summary struct {
	Samples    int
	PeakTempK  float64
	PeakUnit   power.Unit
	StallFrac  float64
	MeanPowerW float64
}

// Summarize computes the aggregate view of samples.
func Summarize(samples []Sample) Summary {
	var s Summary
	s.Samples = len(samples)
	if s.Samples == 0 {
		return s
	}
	stalled := 0
	for i := range samples {
		u, t := samples[i].MaxTemp()
		if t > s.PeakTempK {
			s.PeakTempK, s.PeakUnit = t, u
		}
		if samples[i].Stalled {
			stalled++
		}
		s.MeanPowerW += samples[i].TotalPowerW
	}
	s.StallFrac = float64(stalled) / float64(s.Samples)
	s.MeanPowerW /= float64(s.Samples)
	return s
}
