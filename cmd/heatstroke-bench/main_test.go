package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseBenchNames: a sub-benchmark name ending in -<digits> keeps
// it on every host shape, and only the GOMAXPROCS suffix go test
// appends is stripped (none on a 1-CPU host).
func TestParseBenchNames(t *testing.T) {
	for _, tc := range []struct {
		line string
		cpu  int
		want string
	}{
		{"BenchmarkGridThermalStep/lumped-27   \t1000\t       305.9 ns/op\t       0 B/op\t       0 allocs/op", 1, "BenchmarkGridThermalStep/lumped-27"},
		{"BenchmarkGridThermalStep/lumped-27-2 \t1000\t       305.9 ns/op\t       0 B/op\t       0 allocs/op", 2, "BenchmarkGridThermalStep/lumped-27"},
		{"BenchmarkGridThermalStep/lumped-27-16\t1000\t       305.9 ns/op", 16, "BenchmarkGridThermalStep/lumped-27"},
		{"BenchmarkPipelineCycles-8   3000000   478.2 ns/op   0 B/op   0 allocs/op", 8, "BenchmarkPipelineCycles"},
		{"BenchmarkPipelineCycles     3000000   478.2 ns/op", 1, "BenchmarkPipelineCycles"},
		{"BenchmarkFleetThroughput/workers=4-2   4   253982996 ns/op   23322334 B/op   16869 allocs/op", 2, "BenchmarkFleetThroughput/workers=4"},
	} {
		b, ok := parseBench(tc.line, ".", tc.cpu)
		if !ok {
			t.Errorf("cpu %d: %q did not parse", tc.cpu, tc.line)
			continue
		}
		if b.Name != tc.want {
			t.Errorf("cpu %d: name %q, want %q", tc.cpu, b.Name, tc.want)
		}
		if b.Iterations <= 0 || b.NsPerOp <= 0 {
			t.Errorf("cpu %d: %+v", tc.cpu, b)
		}
	}
	b, _ := parseBench("BenchmarkFleetThroughput/workers=4-2   4   253982996 ns/op   23322334 B/op   16869 allocs/op", ".", 2)
	if b.BytesPerOp != 23322334 || b.AllocsPerOp != 16869 {
		t.Errorf("memory columns: %+v", b)
	}
	for _, line := range []string{"PASS", "ok  \tgithub.com/x\t1.2s", "goos: linux", ""} {
		if _, ok := parseBench(line, ".", 2); ok {
			t.Errorf("%q parsed as a result", line)
		}
	}
}

// TestBaselineEnv: a recording names its host, and a baseline from
// before env was recorded reads back with none, so -compare has no
// host to warn about.
func TestBaselineEnv(t *testing.T) {
	env := hostEnv()
	if env.NProc < 1 || env.GOMAXPROCS < 1 || env.GoVersion == "" || env.CPUModel == "" {
		t.Errorf("incomplete host: %+v", env)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"benchtime": "1x", "benchmarks": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env != nil {
		t.Errorf("a baseline without env read back with %+v", *f.Env)
	}
}
