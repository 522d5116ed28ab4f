package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Agg is a running aggregate of one named metric across a sweep.
// M2 is the Welford sum of squared deviations from the running mean;
// it is exported (and serialized) so aggregates persisted to JSON —
// e.g. the daemon's cached summaries — round-trip with their spread.
type Agg struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
	M2    float64
}

// Add folds one value into the aggregate. Exported so consumers that
// receive per-job metrics incrementally (e.g. a progress stream) can
// build the same aggregates Summary would.
func (a *Agg) Add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	old := a.Count
	a.Count++
	a.Sum += v
	if old > 0 {
		// Welford's update, phrased in terms of the stored Sum: the
		// deviation from the pre-update mean times the deviation from
		// the post-update mean.
		a.M2 += (v - (a.Sum-v)/float64(old)) * (v - a.Sum/float64(a.Count))
	}
}

// Mean is the average of the recorded values (0 when empty).
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Variance is the population variance of the recorded values (0 when
// fewer than two).
func (a Agg) Variance() float64 {
	if a.Count < 2 {
		return 0
	}
	return a.M2 / float64(a.Count)
}

// Stddev is the population standard deviation of the recorded values.
func (a Agg) Stddev() float64 { return math.Sqrt(a.Variance()) }

// MarshalJSON renders the aggregate with its derived mean and spread.
func (a Agg) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count  int     `json:"count"`
		Sum    float64 `json:"sum"`
		Min    float64 `json:"min"`
		Max    float64 `json:"max"`
		M2     float64 `json:"m2"`
		Mean   float64 `json:"mean"`
		Stddev float64 `json:"stddev"`
	}{a.Count, a.Sum, a.Min, a.Max, a.M2, a.Mean(), a.Stddev()})
}

// Summary aggregates a sweep's execution metrics: job counts, wall
// times, warm-state sharing counts, and any custom metrics extracted by
// Options.Metrics. Timing fields vary run to run; everything else is
// deterministic for deterministic jobs.
type Summary struct {
	Jobs        int `json:"jobs"`
	Succeeded   int `json:"succeeded"`
	Failed      int `json:"failed"`
	Skipped     int `json:"skipped"`
	Parallelism int `json:"parallelism"`
	// WallTime is the sweep's end-to-end duration; JobTime is the sum
	// of per-job durations (JobTime/WallTime ~ effective parallelism).
	WallTime   time.Duration `json:"wall_ns"`
	JobTime    time.Duration `json:"job_ns"`
	MaxJobTime time.Duration `json:"max_job_ns"`
	// WarmupRuns counts the warm-sharing jobs that simulated at least
	// one core warmup; WarmupReused counts those that simulated none,
	// taking every record from the warm store or another job's build.
	// The experiment harness fills both; they are zero when no job
	// shares warm state.
	WarmupRuns   int `json:"warmup_runs,omitempty"`
	WarmupReused int `json:"warmup_reused,omitempty"`
	// Deprecated: ForkPrefixes and ForkReused counted the fork-tree
	// scheduler's shared prefixes, which WarmupRuns and WarmupReused
	// now count. They are always zero.
	ForkPrefixes int `json:"fork_prefixes,omitempty"`
	// Deprecated: see ForkPrefixes.
	ForkReused int `json:"fork_reused,omitempty"`
	// Metrics holds the custom per-job measurements, aggregated in
	// input order.
	Metrics map[string]Agg `json:"metrics,omitempty"`
}

// Throughput is the summed value of the named metric per wall-clock
// second (e.g. simulated cycles/sec for a "sim_cycles" metric).
func (s *Summary) Throughput(metric string) float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return s.Metrics[metric].Sum / s.WallTime.Seconds()
}

// String renders a one-line human-readable summary.
func (s *Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d jobs (%d ok", s.Jobs, s.Succeeded)
	if s.Failed > 0 {
		fmt.Fprintf(&sb, ", %d failed", s.Failed)
	}
	if s.Skipped > 0 {
		fmt.Fprintf(&sb, ", %d skipped", s.Skipped)
	}
	fmt.Fprintf(&sb, ") in %.1fs wall / %.1fs job-time at parallelism %d",
		s.WallTime.Seconds(), s.JobTime.Seconds(), s.Parallelism)
	if s.WarmupRuns > 0 || s.WarmupReused > 0 {
		fmt.Fprintf(&sb, ", %d warmups (%d reused)", s.WarmupRuns, s.WarmupReused)
	}
	if cycles, ok := s.Metrics[MetricSimCycles]; ok && cycles.Sum > 0 {
		fmt.Fprintf(&sb, ", %.1f Mcycles/s", s.Throughput(MetricSimCycles)/1e6)
	}
	if peak, ok := s.Metrics[MetricPeakTempK]; ok && peak.Count > 0 {
		fmt.Fprintf(&sb, ", peak %.1f K", peak.Max)
	}
	return sb.String()
}

// MetricNames lists the metrics present, sorted.
func (s *Summary) MetricNames() []string {
	names := make([]string, 0, len(s.Metrics))
	for n := range s.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Conventional metric names used by the simulation harness.
const (
	// MetricSimCycles is the number of cycles a job simulated.
	MetricSimCycles = "sim_cycles"
	// MetricCyclesPerSec is a job's simulation speed.
	MetricCyclesPerSec = "cycles_per_sec"
	// MetricPeakTempK is a job's hottest sensor observation.
	MetricPeakTempK = "peak_temp_k"
	// MetricEmergencies is a job's thermal emergency count.
	MetricEmergencies = "emergencies"
)

// summarize folds the finished job results into a Summary. It walks
// the jobs in input order so metric aggregation is deterministic.
func summarize[T any](r *Result[T], parallelism int, wall time.Duration, metrics func(JobResult[T]) map[string]float64) Summary {
	s := Summary{Jobs: len(r.Jobs), Parallelism: parallelism, WallTime: wall}
	for _, j := range r.Jobs {
		switch {
		case j.Skipped:
			s.Skipped++
		case j.Err != nil:
			s.Failed++
		default:
			s.Succeeded++
		}
		s.JobTime += j.Elapsed
		if j.Elapsed > s.MaxJobTime {
			s.MaxJobTime = j.Elapsed
		}
		if metrics == nil || j.Err != nil || j.Skipped {
			continue
		}
		for name, v := range metrics(j) {
			if s.Metrics == nil {
				s.Metrics = make(map[string]Agg)
			}
			agg := s.Metrics[name]
			agg.Add(v)
			s.Metrics[name] = agg
		}
	}
	return s
}
