package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// defaultSeed and defaultSeconds apply when the flags are omitted.
const (
	defaultSeed    = 1
	defaultSeconds = 30
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcps", "Mcycle/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"miss_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints, on every workload;
// a layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"cpu.busy_s", "s"}, {"cpu.cycles", "count"}, {"cpu.ns_per_cycle", "ns"},
	{"cpu.insts", "count"}, {"cpu.stall_frac", "ratio"},
	{"sim.warmup_s", "s"},
	{"thermal.init_busy_s", "s"}, {"thermal.inits", "count"}, {"thermal.init_ms", "ms"},
	{"thermal.step_busy_s", "s"}, {"thermal.steps", "count"}, {"thermal.step_us", "us"},
	{"core.busy_s", "s"}, {"core.samples", "count"},
	{"power.busy_s", "s"}, {"power.intervals", "count"},
	{"dtm.busy_s", "s"}, {"dtm.ticks", "count"},
	{"sim.other_s", "s"},
	{"sim.victim_ipc", "inst/cycle"}, {"sim.emergencies", "count"},
	{"sim.stopgo_frac", "ratio"}, {"sim.sedated_frac", "ratio"},
	{"sweep.jobs", "count"}, {"sweep.job_busy_s", "s"}, {"sweep.idle_s", "s"},
	{"sweep.warmup_runs", "count"}, {"sweep.warmup_reused", "count"},
	{"sweep.fork_prefixes", "count"}, {"sweep.fork_reused", "count"}, {"sweep.reuse_ratio", "ratio"},
	{"client.submit_ms_p50", "ms"}, {"client.wait_ms_p50", "ms"},
	{"server.cache_hits", "count"}, {"server.coalesced", "count"}, {"server.runs", "count"},
	{"server.rejected", "count"}, {"server.hit_ratio", "ratio"},
	{"server.sweep_ms_p50", "ms"}, {"server.overhead_ms_p50", "ms"}, {"server.queue_wait_ms_p50", "ms"},
	{"server.warm_hits", "count"}, {"server.warm_misses", "count"},
	{"fleet.dispatch_ms_p50", "ms"},
	{"loadgen.late_ms_max", "ms"}, {"loadgen.inflight_max", "count"},
	{"trace.overhead_pct", "%"}, {"trace.split_available", "bool"},
}

// params is what every workload receives: the seed, the run size, the
// mode, and the directory for its scratch files and trace output.
type params struct {
	seed    int64
	seconds int
	traced  bool
	outDir  string
	log     io.Writer
}

// report is what a workload measured. ops counts every op attempted
// and failed every op that errored, was refused or failed its output
// check. metrics holds the workload's end-to-end metrics (untraced
// runs) or per-layer metrics (traced runs), peak_rss_mb excepted.
type report struct {
	ops, failed int
	checkErrs   []string
	digest      string
	metrics     map[string]float64
}

// fail records one failed output check.
func (r *report) fail(format string, args ...any) {
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, p params) (*report, error)

var workloads = map[string]workloadFunc{
	"attack-quanta": runAttack,
	"die-sweep":     runDieSweep,
	"serve-mix":     runServeMix,
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", defaultSeconds, "run size: sets the fixed amount of work, calibrated to take about this long")
	trace := fl.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced split and prints the per-layer metrics")
	outDir := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and trace output")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := readHostEnv()
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	warnHostChange(env, filepath.Join(*outDir, "host.json"), stderr)

	p := params{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir, log: stderr}
	steal0, total0 := cpuTicks()
	rep, err := w(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor gave the VM's CPUs to others: runs with
		// much of it measured a slower machine.
		fmt.Fprintf(stderr, "perfbench: host steal %.1f%% of CPU time during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	res, err := buildResult(rep, p.traced, peakRSSMB())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range rep.checkErrs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	fmt.Fprintf(stdout, "digest %s seed=%d seconds=%d trace=%d sha256=%s\n", *name, *seed, *seconds, *trace, rep.digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildResult turns a workload's report into the printed result. Every
// metric of the run's mode must be present in an untraced run; a traced
// run fills the layers a workload does not exercise with 0.
func buildResult(rep *report, traced bool, rssMB float64) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		rep.metrics["peak_rss_mb"] = rssMB
	}
	res := &result{
		Correct:   rep.failed == 0 && len(rep.checkErrs) == 0,
		Attempted: rep.ops,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no op attempted")
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set size in MB (ru_maxrss
// is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks reads the steal and total ticks of all CPUs from /proc/stat
// (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostEnv records what a run's figures depend on besides the code.
type hostEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 digests every Go source and module file of the
	// checkout, so runs of one tree are recognisable without git.
	SourceSHA256 string `json:"source_sha256"`
}

func readHostEnv() hostEnv {
	env := hostEnv{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     "unknown",
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest("."),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// sourceDigest hashes the path and bytes of every .go, go.mod and
// go.sum file under root, skipping hidden directories (build output
// lives in one).
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// warnHostChange compares this run's host with the one recorded by the
// previous run in the same output directory and warns when they differ
// in anything but the code: figures from different hosts do not compare.
func warnHostChange(env hostEnv, path string, stderr io.Writer) {
	if b, err := os.ReadFile(path); err == nil {
		var prev hostEnv
		if json.Unmarshal(b, &prev) == nil {
			prev.Commit, prev.SourceSHA256 = env.Commit, env.SourceSHA256
			if prev != env {
				fmt.Fprintf(stderr, "perfbench: WARNING: host differs from the previous run (%s); figures are not comparable\n", b)
			}
		}
	}
	if b, err := json.Marshal(env); err == nil {
		_ = os.WriteFile(path, b, 0o644) // best effort: only feeds the next run's warning
	}
}
