// Command heatstroke regenerates the paper's tables and figures.
//
// Usage:
//
//	heatstroke -experiment fig5                 # one experiment
//	heatstroke -experiment all                  # the whole evaluation
//	heatstroke -experiment fig4 -bench crafty,mcf -quantum 8000000
//	heatstroke -experiment fig5 -format json    # machine-readable artifact
//	heatstroke -experiment all -format csv -out artifacts/
//	heatstroke -experiment fig3 -server http://localhost:8080
//	heatstroke -list                            # list experiments
//
// Tables render as ASCII by default; -format json/csv emits structured
// artifacts (JSON includes the sweep's execution summary — job counts,
// wall times, simulated cycles/sec, peak temperatures). With -out the
// artifacts are written to files (a directory when running several
// experiments); without it they go to stdout. Progress and timing are
// printed to stderr so stdout stays parseable. Interrupting the run
// (SIGINT/SIGTERM) cancels the sweep: running simulations finish,
// pending ones are skipped. -timeout bounds the whole invocation.
//
// With -server the experiment is not simulated locally: the request is
// submitted to a heatstroked daemon (cmd/heatstroked), which coalesces
// identical requests and serves repeats from its content-addressed
// cache. Progress streams back live, and the artifact is fetched in
// the requested format, so the flag composes with -format/-out exactly
// like a local run.
//
// The -scale flag trades fidelity for speed (DESIGN.md §6): -scale 1
// -quantum 500000000 is the paper's physical time base.
//
// -cpuprofile and -memprofile write pprof profiles of the run (local
// simulation only — profiling a -server run profiles just the client),
// for chasing simulator hot spots alongside the committed benchmark
// baseline (see DESIGN.md "Performance").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
	"github.com/heatstroke-sim/heatstroke/pkg/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroke: ")
	os.Exit(run())
}

// run holds main's body so profile-writing defers fire before exit.
func run() int {
	name := flag.String("experiment", "", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list available experiments")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all)")
	quantum := flag.Int64("quantum", 0, "cycles per OS quantum (default: config)")
	warmup := flag.Int64("warmup", 0, "unmeasured warmup cycles (default 500000)")
	scale := flag.Float64("scale", 0, "thermal scale factor (default 16; 1 = paper time base)")
	cores := flag.Int("cores", 0, "die core count (default: 1, or 2 for multi-core experiments)")
	solver := flag.String("solver", "", "thermal solver: lumped or grid (default: lumped, grid when -cores > 1)")
	seed := flag.Int64("seed", 0, "workload generation seed (default: config)")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (default: GOMAXPROCS)")
	format := flag.String("format", "table", "artifact format: table, json, or csv")
	out := flag.String("out", "", "write artifacts to this file (one experiment) or directory (default: stdout)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	serverURL := flag.String("server", "", "run via a heatstroked daemon at this URL instead of locally")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *list {
		for _, n := range experiment.Names() {
			fmt.Println(n)
		}
		return 0
	}
	if *name == "" {
		flag.Usage()
		return 2
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Print(err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			defer mf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				log.Print(err)
			}
		}()
	}
	f, err := sweep.ParseFormat(*format)
	if err != nil {
		log.Print(err)
		return 1
	}

	// A literal -seed 0 must mean "seed zero", not "use the default";
	// flag.Visit distinguishes the two.
	seedSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "seed" {
			seedSet = true
		}
	})

	var benchList []string
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			benchList = append(benchList, strings.TrimSpace(b))
		}
	}

	names := []string{*name}
	if *name == "all" {
		names = experiment.Names()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serverURL != "" {
		c := client.New(*serverURL)
		for _, n := range names {
			req := api.JobRequest{
				Experiment: n,
				Benchmarks: benchList,
				Quantum:    *quantum,
				Warmup:     *warmup,
				Scale:      *scale,
				Cores:      *cores,
				Solver:     *solver,
			}
			if seedSet {
				s := *seed
				req.Seed = &s
			}
			if err := runRemote(ctx, c, req, f, *format, *out, len(names) > 1); err != nil {
				log.Print(err)
				return 1
			}
		}
		return 0
	}

	cfg := config.Default()
	if *scale > 0 {
		cfg.Thermal.Scale = *scale
	}
	if *cores > 0 {
		cfg.Topology.Cores = *cores
		if *cores > 1 && *solver == "" {
			cfg.Topology.Solver = config.SolverGrid
		}
	}
	if *solver != "" {
		cfg.Topology.Solver = *solver
	}
	if err := cfg.Validate(); err != nil {
		log.Print(err)
		return 2
	}
	opts := experiment.Options{
		Config:      &cfg,
		Quantum:     *quantum,
		Warmup:      *warmup,
		Seed:        *seed,
		SeedSet:     seedSet,
		Parallelism: *parallel,
		Benchmarks:  benchList,
	}

	for _, n := range names {
		start := time.Now()
		table, err := experiment.RunContext(ctx, n, opts)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := emit(table.Writer(f), n, f, *out, len(names) > 1); err != nil {
			log.Print(err)
			return 1
		}
		status := fmt.Sprintf("%s in %.1fs", n, time.Since(start).Seconds())
		if table.Summary != nil {
			status += ": " + table.Summary.String()
		}
		fmt.Fprintf(os.Stderr, "  (%s)\n", status)
	}
	return 0
}

// runRemote submits one experiment to a heatstroked daemon, streams
// its progress to stderr, and emits the fetched artifact through the
// same stdout/file path logic as a local run.
func runRemote(ctx context.Context, c *client.Client, req api.JobRequest, f sweep.Format, format, out string, multi bool) error {
	start := time.Now()
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	switch {
	case st.Cached:
		fmt.Fprintf(os.Stderr, "  %s: cache hit (job %s)\n", req.Experiment, st.ID)
	case st.Coalesced:
		fmt.Fprintf(os.Stderr, "  %s: joined in-flight job %s\n", req.Experiment, st.ID)
	default:
		fmt.Fprintf(os.Stderr, "  %s: submitted job %s\n", req.Experiment, st.ID)
	}
	if st.TraceID != "" {
		fmt.Fprintf(os.Stderr, "  %s: trace %s (GET /v1/traces/%s)\n", req.Experiment, st.TraceID, st.TraceID)
	}
	final, err := c.Wait(ctx, st.ID, func(p api.Progress) {
		if p.Total > 0 {
			fmt.Fprintf(os.Stderr, "\r  %s: %d/%d simulations", req.Experiment, p.Completed, p.Total)
		}
	})
	if final != nil && final.Progress.Total > 0 {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if final.Status != api.StatusDone {
		if final.Error != "" {
			return fmt.Errorf("job %s %s: %s", final.ID, final.Status, final.Error)
		}
		return fmt.Errorf("job %s ended %s", final.ID, final.Status)
	}
	raw, err := c.Artifact(ctx, final.ID, format)
	if err != nil {
		return err
	}
	write := func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}
	if err := emit(write, req.Experiment, f, out, multi); err != nil {
		return err
	}
	status := fmt.Sprintf("%s in %.1fs", req.Experiment, time.Since(start).Seconds())
	if final.Summary != nil {
		status += ": " + final.Summary.String()
	}
	fmt.Fprintf(os.Stderr, "  (%s)\n", status)
	return nil
}

// emit writes one artifact produced by write. An empty path means
// stdout; otherwise the path is a file for a single experiment, or a
// directory (created if missing) holding <experiment>.<ext> when
// several run.
func emit(write func(io.Writer) error, name string, f sweep.Format, path string, multi bool) error {
	if path == "" {
		if err := write(os.Stdout); err != nil {
			return err
		}
		if f == sweep.FormatTable {
			fmt.Println()
		}
		return nil
	}
	if multi || strings.HasSuffix(path, string(os.PathSeparator)) || isDir(path) {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return err
		}
		path = filepath.Join(path, name+"."+f.Ext())
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  wrote %s\n", path)
	return nil
}

func isDir(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}
