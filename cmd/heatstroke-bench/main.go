// Command heatstroke-bench runs the repo's Go benchmarks and renders
// the results as a stable JSON artifact, so performance can be tracked
// in version control and compared mechanically.
//
// Usage:
//
//	heatstroke-bench -out BENCH_baseline.json          # record a baseline
//	heatstroke-bench -compare BENCH_baseline.json      # run and diff
//	heatstroke-bench -bench 'ProfilePair' -benchtime 4x
//
// Recording runs `go test -run '^$' -bench <pattern> -benchmem -cpu N`
// on the benchmark-bearing packages, N being this process's GOMAXPROCS,
// and parses the standard output lines into {name, iterations,
// ns_per_op, bytes_per_op, allocs_per_op} records. go test appends
// "-N" to every name unless N is 1; exactly that suffix is stripped,
// so names are stable across machines. The artifact's env records the
// host (nproc, GOMAXPROCS, CPU model, Go version), as perfbench's env
// line does.
//
// Comparing re-runs the same benchmarks and reports each one's ns/op,
// B/op, and allocs/op against the baseline file. Time regressions
// beyond -threshold (default 10%) and memory regressions beyond
// -alloc-threshold (default 5% on both B/op and allocs/op — the
// allocator columns are near-deterministic, so the bar is tighter)
// print a WARNING but do not fail the run — shared CI machines are too
// noisy for a hard time gate; the warnings make a genuine regression
// visible in the job log without blocking merges on scheduler jitter.
// -fail-on-regress (alias -strict) upgrades warnings to a non-zero
// exit for local use on a quiet machine. A baseline recorded on
// another host draws a warning on standard error, never a failure:
// its deltas compare machines as well as code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the artifact schema. Env names the host the rows were
// recorded on. Previous, when present, holds earlier recordings of the
// same baseline (newest first) so the committed file carries the
// performance trajectory, not just the latest point; the tool reads
// and compares against the top-level rows only.
type File struct {
	Benchtime  string      `json:"benchtime"`
	Env        *Env        `json:"env,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Previous   []File      `json:"previous,omitempty"`
}

// Env records what a run's figures depend on besides the code, the
// fields of perfbench's env line that describe the host.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func hostEnv() Env {
	env := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// defaultPattern covers the simulator-speed benchmarks the committed
// baseline tracks: the profile pair/solo runs that dominate experiment
// wall time, the raw pipeline rate, one full quantum, one sensor
// interval's worth of thermal Euler substeps (the per-interval
// constant every simulation pays), the warm-record-reuse
// comparison (reuse vs cold sub-benchmarks), the multi-core warm-sharing
// comparison (shared vs cold sub-benchmarks), and the fleet-throughput
// comparison (1 vs 4 workers behind the coordinator; the absolute
// jobs/sec is machine-bound, but a regression in either arm still
// surfaces as ns/op growth), and the thermal-solver comparison (the
// 27-node lumped network vs the 64x64 grid stencil over one sensor
// interval, pinning the cost ratio the lumped fast path exists for),
// and the grid's steady-state solve (one from-ambient anchor of a
// 2-core and a 4-core die, which every cold whole-die job pays).
const defaultPattern = "^(BenchmarkProfileSolo|BenchmarkProfilePair|BenchmarkPipelineCycles|BenchmarkQuantumSimulation|BenchmarkThermalStep|BenchmarkGridThermalStep|BenchmarkGridSteady|BenchmarkWarmupReuse|BenchmarkMultiWarmShare|BenchmarkFleetThroughput)$"

// defaultPackages are the packages holding those benchmarks.
var defaultPackages = []string{".", "./internal/experiment", "./internal/fleet", "./internal/thermal"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroke-bench: ")
	pattern := flag.String("bench", defaultPattern, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value (e.g. 4x, 2s)")
	count := flag.Int("count", 1, "go test -count value")
	pkgs := flag.String("packages", strings.Join(defaultPackages, ","), "comma-separated packages to benchmark")
	out := flag.String("out", "", "write the JSON artifact to this file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to diff the run against")
	threshold := flag.Float64("threshold", 10, "regression warning threshold in percent ns/op")
	allocThreshold := flag.Float64("alloc-threshold", 5, "regression warning threshold in percent B/op and allocs/op")
	failOnRegress := flag.Bool("fail-on-regress", false, "exit non-zero when a regression exceeds a threshold")
	strict := flag.Bool("strict", false, "alias for -fail-on-regress")
	flag.Parse()

	results, err := runBenchmarks(*pattern, *benchtime, *count, runtime.GOMAXPROCS(0), strings.Split(*pkgs, ","))
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatalf("no benchmarks matched %q", *pattern)
	}
	env := hostEnv()
	artifact := File{Benchtime: *benchtime, Env: &env, Benchmarks: results}

	if *compare != "" {
		base, err := readBaseline(*compare)
		if err != nil {
			log.Fatal(err)
		}
		if base.Env != nil && *base.Env != env {
			log.Printf("warning: this host %+v differs from the baseline's %+v; the deltas compare hosts as well as code", env, *base.Env)
		}
		if regressed := diff(base, artifact, *threshold, *allocThreshold); regressed && (*failOnRegress || *strict) {
			os.Exit(1)
		}
		return
	}

	enc, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(results))
}

// benchLine matches `BenchmarkName-8  4  874652470 ns/op  93389022 B/op  2728139 allocs/op`
// (the memory columns require -benchmem, which runBenchmarks passes).
// The name keeps any -N suffix; benchName strips the GOMAXPROCS one.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// benchName strips the "-cpu" suffix go test appends to a benchmark's
// name when it runs at GOMAXPROCS cpu (none when cpu is 1), and only
// that suffix: a name that itself ends in -<digits> keeps it.
func benchName(name string, cpu int) string {
	if cpu == 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(cpu))
}

// parseBench parses one go test output line run at GOMAXPROCS cpu.
func parseBench(line, pkg string, cpu int) (Benchmark, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: benchName(m[1], cpu), Package: pkg}
	b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
	if m[4] != "" {
		b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
	}
	if m[5] != "" {
		b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
	}
	return b, true
}

// runBenchmarks shells out to go test and parses the result lines.
// Packages run one at a time so a result can be attributed to its
// package even though the text format does not repeat it per line.
func runBenchmarks(pattern, benchtime string, count, cpu int, pkgs []string) ([]Benchmark, error) {
	var all []Benchmark
	for _, pkg := range pkgs {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", pattern, "-benchmem", "-cpu", strconv.Itoa(cpu),
			"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s: %w", pkg, err)
		}
		for _, line := range strings.Split(string(outBytes), "\n") {
			if b, ok := parseBench(line, pkg, cpu); ok {
				all = append(all, b)
			}
		}
	}
	return all, nil
}

func readBaseline(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// diff prints a per-benchmark comparison — time and memory columns —
// and returns whether any benchmark regressed past its threshold.
// ns/op is judged against timePct, B/op and allocs/op against
// memPct: the allocator columns barely jitter, so they get the
// tighter bar and catch a reintroduced hot-path allocation even on a
// noisy machine.
func diff(base, cur File, timePct, memPct float64) bool {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	regressed := false
	warn := func(name, col string, deltaPct, limit float64) {
		fmt.Printf("WARNING: %s %s regressed %.1f%% over baseline (threshold %.0f%%)\n",
			name, col, deltaPct, limit)
		regressed = true
	}
	pctOf := func(cur, old int64) float64 {
		if old <= 0 {
			return 0
		}
		return float64(cur-old) / float64(old) * 100
	}
	for _, b := range cur.Benchmarks {
		o, ok := baseBy[b.Name]
		if !ok || o.NsPerOp <= 0 {
			fmt.Printf("%-32s %14.0f ns/op  %12d B/op  %9d allocs/op  (no baseline)\n",
				b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
			continue
		}
		nsPct := (b.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		bytesPct := pctOf(b.BytesPerOp, o.BytesPerOp)
		allocsPct := pctOf(b.AllocsPerOp, o.AllocsPerOp)
		fmt.Printf("%-32s %14.0f ns/op  %+6.1f%%  %12d B/op  %+6.1f%%  %9d allocs/op  %+6.1f%%\n",
			b.Name, b.NsPerOp, nsPct, b.BytesPerOp, bytesPct, b.AllocsPerOp, allocsPct)
		if nsPct > timePct {
			warn(b.Name, "ns/op", nsPct, timePct)
		}
		if bytesPct > memPct {
			warn(b.Name, "B/op", bytesPct, memPct)
		}
		if allocsPct > memPct {
			warn(b.Name, "allocs/op", allocsPct, memPct)
		}
	}
	return regressed
}
