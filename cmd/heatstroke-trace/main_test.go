package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

// short is the scenario every test here runs: the default attack pair
// over a short quantum after a short warmup.
var short = []string{"-cycles", "200000", "-warmup", "20000"}

// exportRun runs the CLI with args on top of short and returns its NDJSON
// and CSV outputs.
func exportRun(t *testing.T, args ...string) (ndjson, csv []byte) {
	t.Helper()
	dir := t.TempDir()
	events, out := filepath.Join(dir, "run.ndjson"), filepath.Join(dir, "run.csv")
	if err := run(append(append([]string{"-events-out", events, "-o", out}, short...), args...)); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	ndjson, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if csv, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	return ndjson, csv
}

// TestSnapshotRoundTrip: a run that writes a snapshot and a run
// restored from it export byte-identically to a plain run, and the
// snapshot restores under another DTM policy, matching that policy's
// plain run.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap")
	plainEv, plainCSV := exportRun(t, "-policy", "sedation")
	outEv, outCSV := exportRun(t, "-policy", "sedation", "-snapshot-out", snap)
	inEv, inCSV := exportRun(t, "-policy", "sedation", "-snapshot-in", snap)
	if len(plainEv) == 0 || len(plainCSV) == 0 {
		t.Fatal("the plain run exported nothing")
	}
	if !bytes.Equal(outEv, plainEv) || !bytes.Equal(outCSV, plainCSV) {
		t.Error("writing a snapshot changed the run's exports")
	}
	if !bytes.Equal(inEv, plainEv) || !bytes.Equal(inCSV, plainCSV) {
		t.Error("a run restored from the snapshot differs from the plain run")
	}

	dvsEv, dvsCSV := exportRun(t, "-policy", "dvs")
	inEv, inCSV = exportRun(t, "-policy", "dvs", "-snapshot-in", snap)
	if !bytes.Equal(inEv, dvsEv) || !bytes.Equal(inCSV, dvsCSV) {
		t.Error("the snapshot restored under dvs differs from a plain dvs run")
	}
}

// TestSnapshotRejects: a snapshot that is torn, holds a die, or comes
// from other programs, another warm configuration or another warmup
// length fails the run and names the file; so do both snapshot flags
// at once and either one at -warmup 0.
func TestSnapshotRejects(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "warm.snap")
	exportRun(t, "-snapshot-out", snap)
	gcc := filepath.Join(dir, "gcc.snap")
	exportRun(t, "-bench", "gcc", "-snapshot-out", gcc)
	solo := filepath.Join(dir, "solo.snap")
	exportRun(t, "-variant", "0", "-snapshot-out", solo)

	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.snap")
	if err := os.WriteFile(torn, raw[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	die := filepath.Join(dir, "die.snap")
	s, err := sim.New(config.Default(), []sim.Thread{specThread(t, "crafty")}, sim.Options{Policy: dtm.None})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Solver().State()
	if err := sim.WriteWarmFile(die, &sim.WarmRecord{Version: sim.StateVersion, Die: &st}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"torn file", []string{"-snapshot-in", torn}, []string{"snapshot " + torn + ": ", "unexpected EOF"}},
		{"die record", []string{"-snapshot-in", die}, []string{"snapshot " + die + ": ", "die record"}},
		{"other programs", []string{"-snapshot-in", gcc}, []string{"snapshot " + gcc + ": ", "programs"}},
		{"other warm config", []string{"-variant", "0", "-scale", "64", "-snapshot-in", solo},
			[]string{"snapshot " + solo + ": ", "warm-config"}},
		{"other warmup", []string{"-warmup", "40000", "-snapshot-in", snap},
			[]string{"snapshot " + snap + ": ", "warmup"}},
		{"both flags", []string{"-snapshot-in", snap, "-snapshot-out", filepath.Join(dir, "x.snap")},
			[]string{"mutually exclusive"}},
		{"warmup 0 out", []string{"-warmup", "0", "-snapshot-out", filepath.Join(dir, "y.snap")}, []string{"-warmup > 0"}},
		{"warmup 0 in", []string{"-warmup", "0", "-snapshot-in", snap}, []string{"-warmup > 0"}},
	} {
		args := append(append([]string{"-o", filepath.Join(dir, "out.csv")}, short...), tc.args...)
		err := run(args)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q, want one mentioning %q", tc.name, err, want)
			}
		}
	}
	for _, name := range []string{"x.snap", "y.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("a rejected run wrote %s", name)
		}
	}
}

func specThread(t *testing.T, name string) sim.Thread {
	t.Helper()
	prog, err := workload.Spec(name, config.Default().Run.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Thread{Name: name, Prog: prog}
}
