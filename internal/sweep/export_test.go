package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleTable() *Table {
	return &Table{
		Title:   "Figure X: sample",
		Columns: []string{"benchmark", "ipc", "peak K"},
		Rows: [][]string{
			{"crafty", "1.93", "356.2"},
			{"mcf", "0.41", "351.0"},
			{"name,with\"quirks", "0.00", "0.0"},
		},
		Notes: []string{"paper claim: sample"},
	}
}

// TestRenderGolden locks the exact ASCII rendering so format drift is
// caught before it corrupts exported artifacts.
func TestRenderGolden(t *testing.T) {
	want := "Figure X: sample\n" +
		"  benchmark         ipc   peak K\n" +
		"  ----------------  ----  ------\n" +
		"  crafty            1.93  356.2\n" +
		"  mcf               0.41  351.0\n" +
		"  name,with\"quirks  0.00  0.0\n" +
		"  note: paper claim: sample\n"
	if got := sampleTable().String(); got != want {
		t.Errorf("render drifted:\n got: %q\nwant: %q", got, want)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tb := sampleTable()
	tb.Summary = &Summary{
		Jobs: 3, Succeeded: 3, Parallelism: 2,
		WallTime: time.Second, JobTime: 2 * time.Second,
		Metrics: map[string]Agg{MetricPeakTempK: {Count: 3, Sum: 707.2, Min: 0, Max: 356.2}},
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
		Summary struct {
			Jobs    int `json:"jobs"`
			Metrics map[string]struct {
				Count int     `json:"count"`
				Mean  float64 `json:"mean"`
				Max   float64 `json:"max"`
			} `json:"metrics"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact not parseable: %v\n%s", err, buf.String())
	}
	if decoded.Title != tb.Title || len(decoded.Rows) != 3 || decoded.Rows[2][0] != "name,with\"quirks" {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Summary.Jobs != 3 || decoded.Summary.Metrics[MetricPeakTempK].Count != 3 {
		t.Errorf("summary lost in JSON: %+v", decoded.Summary)
	}
	if decoded.Summary.Metrics[MetricPeakTempK].Max != 356.2 {
		t.Errorf("metric max = %v", decoded.Summary.Metrics[MetricPeakTempK])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV not parseable: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %v", records)
	}
	if records[0][1] != "ipc" || records[3][0] != "name,with\"quirks" {
		t.Errorf("records = %v", records)
	}
}

func TestWriteDispatchAndFormats(t *testing.T) {
	tb := sampleTable()
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := tb.Write(&buf, f); err != nil {
			t.Errorf("write %s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("write %s produced nothing", f)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("yaml should be rejected")
	}
	f, err := ParseFormat(" JSON ")
	if err != nil || f != FormatJSON {
		t.Errorf("ParseFormat = %v, %v", f, err)
	}
	if FormatTable.Ext() != "txt" || FormatCSV.Ext() != "csv" {
		t.Error("unexpected extensions")
	}
	var bad bytes.Buffer
	if err := tb.Write(&bad, Format("nope")); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("bad format err = %v", err)
	}
}

// TestWriteCSVEscaping locks RFC-4180 behaviour for the cell contents
// that break naive writers: embedded commas, double quotes, and
// newlines must be quoted/doubled so a conforming reader recovers the
// exact cells.
func TestWriteCSVEscaping(t *testing.T) {
	tb := &Table{
		Title:   "escaping",
		Columns: []string{"key", "value"},
		Rows: [][]string{
			{"comma", "a,b,c"},
			{"quote", `say "heat stroke"`},
			{"newline", "line1\nline2"},
			{"all", "a,\"b\"\nc"},
			{"empty", ""},
		},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"a,b,c"`, `"say ""heat stroke"""`, "\"line1\nline2\""} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing escaped form %q in:\n%s", want, out)
		}
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV not parseable: %v\n%s", err, out)
	}
	if len(records) != len(tb.Rows)+1 {
		t.Fatalf("got %d records, want %d", len(records), len(tb.Rows)+1)
	}
	for i, row := range tb.Rows {
		for j, cell := range row {
			if records[i+1][j] != cell {
				t.Errorf("row %d col %d: round-tripped %q, want %q", i, j, records[i+1][j], cell)
			}
		}
	}
}

// TestJSONSummaryRoundTrip re-encodes a decoded artifact and checks the
// Summary aggregates survive a full Table -> JSON -> Table cycle (the
// serving layer persists cached results this way).
func TestJSONSummaryRoundTrip(t *testing.T) {
	tb := sampleTable()
	tb.Summary = &Summary{
		Jobs: 4, Succeeded: 3, Failed: 1, Parallelism: 2, WarmupRuns: 2,
		WallTime: 1500 * time.Millisecond, JobTime: 3 * time.Second, MaxJobTime: 2 * time.Second,
		Metrics: map[string]Agg{
			MetricPeakTempK:   {Count: 3, Sum: 1061.4, Min: 351.0, Max: 356.2},
			MetricEmergencies: {Count: 3, Sum: 0, Min: 0, Max: 0},
		},
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Summary == nil {
		t.Fatal("summary lost")
	}
	if back.Summary.Jobs != 4 || back.Summary.Failed != 1 || back.Summary.WarmupRuns != 2 {
		t.Errorf("counts drifted: %+v", back.Summary)
	}
	if back.Summary.WallTime != tb.Summary.WallTime || back.Summary.MaxJobTime != tb.Summary.MaxJobTime {
		t.Errorf("durations drifted: %+v", back.Summary)
	}
	peak := back.Summary.Metrics[MetricPeakTempK]
	if peak.Count != 3 || peak.Min != 351.0 || peak.Max != 356.2 {
		t.Errorf("aggregate drifted: %+v", peak)
	}
	if got, want := peak.Mean(), tb.Summary.Metrics[MetricPeakTempK].Mean(); got != want {
		t.Errorf("mean drifted: %v != %v", got, want)
	}
	// A second encode must be byte-identical to the first: the decoded
	// Agg re-derives the same mean, so persistence is idempotent.
	var buf2 bytes.Buffer
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("re-encode not idempotent:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

// TestEmptyRowTables: a table with columns but no rows must render and
// encode in every format without panicking, and CSV/JSON must preserve
// the header/structure.
func TestEmptyRowTables(t *testing.T) {
	tb := &Table{Title: "empty", Columns: []string{"a", "b"}}
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := tb.Write(&buf, f); err != nil {
			t.Errorf("write %s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("write %s produced nothing", f)
		}
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0][0] != "a" {
		t.Errorf("records = %v", records)
	}
	var back Table
	buf.Reset()
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Columns) != 2 || len(back.Rows) != 0 || back.Summary != nil {
		t.Errorf("round-trip = %+v", back)
	}
}
