package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWarmupCachePersistence: a daemon with -warmup-cache-dir writes
// one .warm record per core and die warm key; a restarted daemon (same
// dir, no result cache) serves its warmups from disk and reports
// identical results. A die experiment's records are persisted and
// served the same way.
func TestWarmupCachePersistence(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, func(o *Options) { o.WarmupCacheDir = dir })

	// The schema is visible before any job runs.
	m := metricsText(t, ts1)
	for _, want := range []string{
		"heatstroked_warmup_cache_hits_total",
		"heatstroked_warmup_cache_misses_total",
		"heatstroked_warmup_restore_seconds",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %s:\n%s", want, m)
		}
	}

	code, st := submit(t, ts1, tinyRequest())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts1, st.ID, api.StatusDone)

	recs, err := filepath.Glob(filepath.Join(dir, "*.warm"))
	if err != nil {
		t.Fatal(err)
	}
	// fig3 over one benchmark runs 4 sims with 4 distinct thread sets,
	// all on one machine: 4 core records and 1 die record.
	if len(recs) != 5 {
		t.Fatalf("wrote %d warm records, want 5", len(recs))
	}
	m = metricsText(t, ts1)
	// Every core misses once; the die misses at least once (two jobs
	// running together may both miss it).
	if misses := metricValue(t, m, "heatstroked_warmup_cache_misses_total"); misses < 5 || misses > 8 {
		t.Errorf("first run recorded %v warmup-cache misses, want 5 to 8:\n%s",
			misses, grepLine(m, "warmup_cache"))
	}
	if strings.Contains(m, "heatstroked_warmup_restore_seconds_count 0") {
		t.Error("restore histogram never observed")
	}

	// Fresh daemon, shared warmup dir, no result cache: same request
	// re-simulates but every warm record is a disk hit — each of the 4
	// jobs reads its core and the die.
	_, ts2 := newTestServer(t, func(o *Options) { o.WarmupCacheDir = dir })
	code, st2 := submit(t, ts2, tinyRequest())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit 2: %d", code)
	}
	waitStatus(t, ts2, st2.ID, api.StatusDone)
	m = metricsText(t, ts2)
	if !strings.Contains(m, "heatstroked_warmup_cache_hits_total 8") ||
		!strings.Contains(m, "heatstroked_warmup_cache_misses_total 0") {
		t.Errorf("second daemon should record 8 warmup-cache hits and no miss:\n%s",
			grepLine(m, "warmup_cache"))
	}
	if a, b := artifactCSV(t, ts1, st.ID), artifactCSV(t, ts2, st2.ID); a != b {
		t.Errorf("cached-warmup results differ:\n%s\nvs\n%s", a, b)
	}

	// A die experiment persists its cores and its die too: the same
	// request at another quantum is a new job with the same warm keys,
	// and every record it reads is a hit.
	die := tinyRequest()
	die.Experiment = "neighbor-heat"
	code, st4 := submit(t, ts2, die)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit die: %d", code)
	}
	waitStatus(t, ts2, st4.ID, api.StatusDone)
	recs, err = filepath.Glob(filepath.Join(dir, "*.warm"))
	if err != nil {
		t.Fatal(err)
	}
	// crafty next to art or Variant2 on a real heat sink (fig3 runs an
	// ideal one, which its warm keys name): three cores and the 2-core
	// die are new.
	if len(recs) != 9 {
		t.Fatalf("%d warm records after the die run, want 9", len(recs))
	}
	hits := metricValue(t, metricsText(t, ts2), "heatstroked_warmup_cache_hits_total")
	die.Quantum = 90_000
	code, st5 := submit(t, ts2, die)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit die 2: %d", code)
	}
	waitStatus(t, ts2, st5.ID, api.StatusDone)
	m = metricsText(t, ts2)
	// Two jobs (benign and trojan neighbour), each reading two cores
	// and the die.
	if got := metricValue(t, m, "heatstroked_warmup_cache_hits_total"); got != hits+6 {
		t.Errorf("second die run hit the warm cache %v times, want 6:\n%s", got-hits, grepLine(m, "warmup_cache"))
	}

	// A torn record is a miss, not an error: the daemon re-warms and
	// overwrites it.
	if err := os.WriteFile(recs[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, func(o *Options) { o.WarmupCacheDir = dir })
	code, st3 := submit(t, ts3, tinyRequest())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit 3: %d", code)
	}
	waitStatus(t, ts3, st3.ID, api.StatusDone)
	if a, b := artifactCSV(t, ts1, st.ID), artifactCSV(t, ts3, st3.ID); a != b {
		t.Errorf("results differ after torn record:\n%s\nvs\n%s", a, b)
	}
}

// metricValue reads one unlabelled sample from a metrics exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func artifactCSV(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: %d: %s", id, resp.StatusCode, b)
	}
	return string(b)
}

func grepLine(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
