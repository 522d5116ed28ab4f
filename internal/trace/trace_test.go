package trace

import (
	"slices"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/power"
)

func sample(cycle int64, rfTemp float64, stalled bool) Sample {
	s := Sample{
		Cycle:         cycle,
		Stalled:       stalled,
		TotalPowerW:   20,
		ThreadIPC:     []float64{1.5, 0.5},
		ThreadSedated: []bool{false, true},
	}
	for u := power.Unit(0); u < power.NumUnits; u++ {
		s.UnitTempK[u] = 350
	}
	s.UnitTempK[power.UnitIntReg] = rfTemp
	return s
}

func TestStride(t *testing.T) {
	var all []Sample
	for i := int64(0); i < 10; i++ {
		all = append(all, sample(i, 351, false))
	}
	got := Stride(all, 3)
	if len(got) != 4 { // samples 0,3,6,9
		t.Fatalf("kept %d samples, want 4", len(got))
	}
	if got[0].Cycle != 0 || got[1].Cycle != 3 || got[3].Cycle != 9 {
		t.Errorf("stride picked cycles %d, %d, %d", got[0].Cycle, got[1].Cycle, got[3].Cycle)
	}
	// A stride of 0 or 1 keeps everything.
	for _, n := range []int{0, 1} {
		if got := Stride(all[:5], n); len(got) != 5 {
			t.Errorf("stride %d kept %d", n, len(got))
		}
	}
}

func TestSampleMaxTemp(t *testing.T) {
	s := sample(0, 359, false)
	u, temp := s.MaxTemp()
	if u != power.UnitIntReg || temp != 359 {
		t.Errorf("max = %s %.1f", u, temp)
	}
}

func TestWriteCSV(t *testing.T) {
	samples := []Sample{sample(20000, 355.5, false), sample(40000, 358.75, true)}
	var sb strings.Builder
	if err := WriteCSV(&sb, samples, []power.Unit{power.UnitIntReg}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	header := lines[0]
	for _, col := range []string{"cycle", "stalled", "power_w", "temp_IntReg_k", "ipc_t0", "sedated_t1"} {
		if !strings.Contains(header, col) {
			t.Errorf("header missing %q: %s", col, header)
		}
	}
	if !strings.HasPrefix(lines[1], "20000,0,20.000,355.500,1.5000,0,0.5000,1") {
		t.Errorf("row 1 = %s", lines[1])
	}
	if !strings.HasPrefix(lines[2], "40000,1,") {
		t.Errorf("row 2 = %s", lines[2])
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Samples != 0 {
		t.Error("empty summary")
	}
	s := Summarize([]Sample{sample(1, 355, false), sample(2, 359, true), sample(3, 353, true)})
	if s.Samples != 3 || s.PeakTempK != 359 || s.PeakUnit != power.UnitIntReg {
		t.Errorf("summary = %+v", s)
	}
	if s.StallFrac < 0.66 || s.StallFrac > 0.67 {
		t.Errorf("stall frac = %v", s.StallFrac)
	}
	if s.MeanPowerW != 20 {
		t.Errorf("mean power = %v", s.MeanPowerW)
	}
}

// TestWriteCSVRaggedThreads: the header must size its thread columns
// to the widest sample, with narrower samples zero-filled — a first
// sample with fewer threads used to shear every wider row off the
// header.
func TestWriteCSVRaggedThreads(t *testing.T) {
	samples := []Sample{
		{Cycle: 1000, ThreadIPC: []float64{1.5}, ThreadSedated: []bool{false}},
		{Cycle: 2000, ThreadIPC: []float64{1.2, 0.8}, ThreadSedated: []bool{false, true}},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, samples, []power.Unit{power.UnitIntReg}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), sb.String())
	}
	header := strings.Split(lines[0], ",")
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Errorf("line %d has %d fields, header has %d:\n%s", i, got, len(header), sb.String())
		}
	}
	for _, col := range []string{"ipc_t0", "sedated_t0", "ipc_t1", "sedated_t1"} {
		if !slices.Contains(header, col) {
			t.Errorf("header missing %q: %v", col, header)
		}
	}
	// The narrow first sample zero-fills its missing thread.
	row0 := strings.Split(lines[1], ",")
	if row0[len(row0)-2] != "0.0000" || row0[len(row0)-1] != "0" {
		t.Errorf("first row not zero-filled: %v", row0)
	}
	// The wide second sample keeps its real values.
	row1 := strings.Split(lines[2], ",")
	if row1[len(row1)-2] != "0.8000" || row1[len(row1)-1] != "1" {
		t.Errorf("second row lost thread 1: %v", row1)
	}
}
