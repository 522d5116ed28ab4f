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
// like a local run. Both paths build the same job request from the
// flags, and a local run resolves it as a daemon does (server.Resolve),
// so it runs what -server runs and rejects what -server rejects.
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
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
	"github.com/heatstroke-sim/heatstroke/pkg/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroke: ")
	os.Exit(run(os.Args[1:]))
}

// run holds main's body so profile-writing defers fire before exit. It
// returns the process exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("heatstroke", flag.ExitOnError)
	name := fs.String("experiment", "", "experiment to run (or 'all')")
	list := fs.Bool("list", false, "list available experiments")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all)")
	quantum := fs.Int64("quantum", 0, "cycles per OS quantum (default: config)")
	warmup := fs.Int64("warmup", 0, "unmeasured warmup cycles (default 500000)")
	scale := fs.Float64("scale", 0, "thermal scale factor (default 16; 1 = paper time base)")
	cores := fs.Int("cores", 0, "die core count (default: 1, or 2 for multi-core experiments)")
	solver := fs.String("solver", "", "thermal solver: lumped or grid (default: lumped, grid when -cores > 1)")
	seed := fs.Int64("seed", 0, "workload generation seed (default: config)")
	parallel := fs.Int("parallel", 0, "max concurrent simulations (default: GOMAXPROCS)")
	format := fs.String("format", "table", "artifact format: table, json, or csv")
	out := fs.String("out", "", "write artifacts to this file (one experiment) or directory (default: stdout)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	serverURL := fs.String("server", "", "run via a heatstroked daemon at this URL instead of locally")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	fs.Parse(args)

	if *list {
		for _, n := range experiment.Names() {
			fmt.Println(n)
		}
		return 0
	}
	if *name == "" {
		fs.Usage()
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

	// One request per experiment, the same for a local run and a
	// -server run. A literal -seed 0 must mean "seed zero", not "use the
	// default"; fs.Visit distinguishes the two.
	req := api.JobRequest{Quantum: *quantum, Warmup: *warmup, Scale: *scale, Cores: *cores, Solver: *solver}
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "seed" {
			req.Seed = seed
		}
	})
	if *benches != "" {
		req.Benchmarks = strings.Split(*benches, ",")
	}
	names := []string{*name}
	if *name == "all" {
		names = experiment.Names()
	}
	reqs := make([]api.JobRequest, len(names))
	for i, n := range names {
		reqs[i] = req
		reqs[i].Experiment = n
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
		for _, req := range reqs {
			if err := runRemote(ctx, c, req, f, *format, *out, len(names) > 1); err != nil {
				log.Print(err)
				return 1
			}
		}
		return 0
	}

	// A local run resolves its requests as a daemon would, all before
	// the first simulation, so it runs exactly what -server runs and
	// rejects what -server rejects.
	for i, req := range reqs {
		if reqs[i], _, err = server.Resolve("", config.Default, req); err != nil {
			log.Print(err)
			return 1
		}
	}
	for _, req := range reqs {
		start := time.Now()
		opts := server.ExperimentOptions("", config.Default, req)
		opts.Parallelism = *parallel
		table, err := experiment.RunContext(ctx, req.Experiment, opts)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := emit(table.Writer(f), req.Experiment, f, *out, len(names) > 1); err != nil {
			log.Print(err)
			return 1
		}
		status := fmt.Sprintf("%s in %.1fs", req.Experiment, time.Since(start).Seconds())
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
