// Command heatstroke-trace runs one attack scenario and exports the
// full-system time series (per-unit die temperatures, chip power, stall
// state, per-thread IPC, sedation state) as CSV for plotting.
//
// Usage:
//
//	heatstroke-trace -bench crafty -variant 2 -policy stopgo > run.csv
//	heatstroke-trace -bench gcc -variant 1 -policy sedation -cycles 16000000 -o trace.csv
//	heatstroke-trace -policy sedation -events-out run.ndjson -perfetto-out run.json -o run.csv
//	heatstroke-trace -policy sedation -snapshot-out warm.snap -o a.csv
//	heatstroke-trace -policy dvs -snapshot-in warm.snap -o b.csv
//
// Alongside the CSV, -events-out writes the typed DTM event timeline
// (threshold crossings, sedations with the culprit thread and EWMA
// score, stop-and-go engage/release, OS reports) as NDJSON, and
// -perfetto-out writes the same run as Chrome/Perfetto trace-event
// JSON — open it in ui.perfetto.dev to see sedation slices per thread
// over the per-unit temperature counters.
//
// -snapshot-out writes the core's post-warmup state to a file as a
// core warm record (the format warm stores and fleet peers use) and
// then runs unchanged; -snapshot-in restores such a file in place of
// warming up. Warmup never ticks a DTM policy, so a restored run is
// byte-identical to a cold one under any -policy. The file stands in
// for the warmup it was written with and must come from the same
// -bench, -variant, -scale and -warmup: the programs and the warm
// configuration are checked by digest, and the warmup length as
// recorded.
//
// A second mode, -stitch, merges distributed-tracing span files (the
// NDJSON a fleet coordinator's -trace-dir writes, or per-node dumps of
// GET /v1/traces/{id}) into one Perfetto trace-event JSON:
//
//	heatstroke-trace -stitch fleet.json coord.ndjson worker1.ndjson worker2.ndjson
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	heatstroke "github.com/heatstroke-sim/heatstroke"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

// stitch merges per-node span NDJSON files into one Perfetto JSON at
// outPath: spans are deduplicated by (trace id, span id) — the same
// span fetched via two nodes collapses to one — and sorted by start
// time, so the output is deterministic for a given input set.
func stitch(outPath string, inputs []string) error {
	if len(inputs) == 0 {
		return fmt.Errorf("-stitch needs at least one span NDJSON file argument")
	}
	groups := make([][]tracing.Span, 0, len(inputs))
	for _, in := range inputs {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		spans, err := tracing.ReadNDJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		groups = append(groups, spans)
	}
	merged := tracing.Stitch(groups...)
	if err := writeFile(outPath, func(w *os.File) error {
		return tracing.WritePerfetto(w, merged)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stitched %d spans from %d files\n", len(merged), len(inputs))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroke-trace: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("heatstroke-trace", flag.ExitOnError)
	bench := fs.String("bench", "crafty", "victim benchmark (empty for none)")
	variant := fs.Int("variant", 2, "malicious variant 1-3 (0 for none)")
	policy := fs.String("policy", "stopgo", "DTM policy: none|stopgo|dvs|ttdfs|sedation")
	cycles := fs.Int64("cycles", 12_000_000, "cycles to simulate")
	warmup := fs.Int64("warmup", 500_000, "warmup cycles before tracing")
	scale := fs.Float64("scale", 0, "thermal scale factor (default 16; 1 = paper time base)")
	stride := fs.Int("stride", 1, "keep every n-th sensor sample")
	out := fs.String("o", "", "output file (default stdout)")
	eventsOut := fs.String("events-out", "", "write the DTM event timeline as NDJSON to this file")
	perfettoOut := fs.String("perfetto-out", "", "write a Chrome/Perfetto trace-event JSON to this file")
	snapshotOut := fs.String("snapshot-out", "", "write the core's post-warmup state to this file, then run")
	snapshotIn := fs.String("snapshot-in", "", "restore the core's post-warmup state from this file instead of warming up")
	stitchOut := fs.String("stitch", "", "stitch mode: merge the span NDJSON files given as arguments into one Perfetto JSON at this path, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *stitchOut != "" {
		return stitch(*stitchOut, fs.Args())
	}
	if *snapshotOut != "" && *snapshotIn != "" {
		return errors.New("-snapshot-out and -snapshot-in are mutually exclusive")
	}
	if (*snapshotOut != "" || *snapshotIn != "") && *warmup <= 0 {
		// Sweeps share no warm state at -warmup 0 either: a snapshot is
		// a warmup's state.
		return errors.New("-snapshot-out and -snapshot-in need a warmup (-warmup > 0)")
	}

	cfg := heatstroke.DefaultConfig()
	cfg.Run.QuantumCycles = *cycles
	if *scale > 0 {
		cfg.Thermal.Scale = *scale
	}

	var threads []sim.Thread
	if *bench != "" {
		prog, err := workload.Spec(*bench, cfg.Run.Seed)
		if err != nil {
			return err
		}
		threads = append(threads, sim.Thread{Name: *bench, Prog: prog})
	}
	if *variant > 0 {
		prog, err := workload.VariantForScale(*variant, cfg.Thermal.Scale)
		if err != nil {
			return err
		}
		threads = append(threads, sim.Thread{Name: fmt.Sprintf("variant%d", *variant), Prog: prog})
	}
	if len(threads) == 0 {
		return errors.New("nothing to run: set -bench and/or -variant")
	}

	s, err := sim.New(cfg, threads, sim.Options{
		Policy:         dtm.Kind(*policy),
		WarmupCycles:   *warmup,
		CollectEvents:  *eventsOut != "" || *perfettoOut != "",
		CollectSamples: true,
	})
	if err != nil {
		return err
	}
	if *snapshotOut != "" {
		if err := saveWarm(s, *snapshotOut); err != nil {
			return fmt.Errorf("snapshot %s: %w", *snapshotOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *snapshotOut)
	}
	if *snapshotIn != "" {
		if err := loadWarm(s, *snapshotIn); err != nil {
			return fmt.Errorf("snapshot %s: %w", *snapshotIn, err)
		}
		fmt.Fprintf(os.Stderr, "restored %s\n", *snapshotIn)
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	samples := trace.Stride(res.Samples, *stride)

	names := make([]string, len(threads))
	for i, th := range threads {
		names[i] = th.Name
	}
	if *eventsOut != "" {
		if err := writeFile(*eventsOut, func(w *os.File) error {
			return telemetry.WriteNDJSON(w, res.Events)
		}); err != nil {
			return err
		}
	}
	if *perfettoOut != "" {
		if err := writeFile(*perfettoOut, func(w *os.File) error {
			return telemetry.WritePerfetto(w, telemetry.TraceOptions{
				FrequencyHz: cfg.Power.FrequencyHz,
				ThreadNames: names,
				Events:      res.Events,
				Samples:     samples,
			})
		}); err != nil {
			return err
		}
	}

	writeCSV := func(w *os.File) error { return trace.WriteCSV(w, samples, nil) }
	if *out == "" {
		err = writeCSV(os.Stdout)
	} else {
		err = writeFile(*out, writeCSV)
	}
	if err != nil {
		return err
	}
	sum := trace.Summarize(samples)
	fmt.Fprintf(os.Stderr, "samples=%d peak=%.2fK@%s stalled=%.1f%% meanPower=%.1fW events=%d\n",
		sum.Samples, sum.PeakTempK, sum.PeakUnit, 100*sum.StallFrac, sum.MeanPowerW, len(res.Events))
	return nil
}

// saveWarm warms the core, writes its state to path as a core warm
// record, and closes the warmup, so the run that follows measures
// exactly as a cold one.
func saveWarm(s *sim.Simulator, path string) error {
	if err := s.WarmCore(0); err != nil {
		return err
	}
	if err := sim.WriteWarmFile(path, &sim.WarmRecord{Version: sim.StateVersion, Core: s.CaptureCore(0)}); err != nil {
		return err
	}
	return s.FinishWarmup(nil)
}

// loadWarm restores the core from the core warm record at path in
// place of its warmup; the die is anchored as a cold warmup anchors
// it.
func loadWarm(s *sim.Simulator, path string) error {
	rec, err := sim.ReadWarmFile(path)
	if err != nil {
		return err
	}
	if rec.Core == nil {
		return errors.New("a die record, not a core record")
	}
	if err := s.RestoreCore(0, rec.Core); err != nil {
		return err
	}
	return s.FinishWarmup(nil)
}

// writeFile creates path, hands it to fill, and reports the write on
// stderr.
func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
