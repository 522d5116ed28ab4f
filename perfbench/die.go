package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

// dieSecondsPerPass sizes die-sweep: one pass (both experiments on both
// dies, 20 jobs) takes 14-23 s on the reference host (2-core x86
// container), so --seconds 20 to 39 runs one pass.
const dieSecondsPerPass = 20

// dieBenign mirrors the experiment package's benign neighbour: the
// program the neighbor-heat baseline and every core past the second run.
const dieBenign = "art"

// diePlan is the fixed work of one die-sweep run.
type diePlan struct {
	dies        []int
	experiments []string
	victims     []string
	quantum     int64
	warmup      int64
	passes      int
	setups      int
}

func diePlanFor(seconds int, traced bool) diePlan {
	p := diePlan{
		dies:        []int{2, 4},
		experiments: []string{experiment.NameDTMScope, experiment.NameNeighborHeat},
		victims:     []string{"crafty", "mcf"},
		quantum:     250_000,
		warmup:      experiment.DefaultWarmupCycles,
		passes:      max(1, seconds/dieSecondsPerPass),
		setups:      3,
	}
	if traced {
		// A traced pass runs every job three times (experiment, sim,
		// replica) and reports no set-up time.
		p.passes, p.setups = 1, 1
	}
	return p
}

// dieConfig is the machine of a k-core grid die with the plan's quantum.
func dieConfig(p diePlan, seed int64, k int) config.Config {
	cfg := config.Default()
	cfg.Run.QuantumCycles = p.quantum
	cfg.Run.Seed = seed
	cfg.Topology.Cores = k
	cfg.Topology.Solver = config.SolverGrid
	return cfg
}

// dieJob is one whole-die simulation as the multi-core experiments
// build it.
type dieJob struct {
	key   string
	cfg   config.Config
	progs [][]*isa.Program
	scope dtm.Scope
	pol   dtm.Kind
	warm  int64
}

func (j dieJob) run() (*sim.MultiResult, error) {
	threads := make([][]sim.Thread, len(j.progs))
	for c, ps := range j.progs {
		for i, prog := range ps {
			threads[c] = append(threads[c], sim.Thread{Name: fmt.Sprintf("c%dt%d", c, i), Prog: prog})
		}
	}
	m, err := sim.NewMulti(j.cfg, threads, sim.MultiOptions{Scope: j.scope, Policy: j.pol, WarmupCycles: j.warm})
	if err != nil {
		return nil, err
	}
	return m.Run()
}

func (j dieJob) spec() replicaSpec {
	return replicaSpec{cfg: j.cfg, progs: j.progs, multi: true, scope: j.scope, policy: j.pol, warmup: j.warm}
}

// dieJobs lists an experiment's jobs on a k-core die, keyed as the
// experiment keys them: core 0 runs the neighbour (Variant2, or the
// benign program), core 1 the victim, any further core the benign
// program.
func dieJobs(p diePlan, seed int64, name string, k int) ([]dieJob, error) {
	cfg := dieConfig(p, seed, k)
	v2, err := workload.VariantForScale(2, cfg.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	benign, err := workload.Spec(dieBenign, seed)
	if err != nil {
		return nil, err
	}
	die := func(neighbor, victim *isa.Program) [][]*isa.Program {
		progs := make([][]*isa.Program, k)
		progs[0], progs[1] = []*isa.Program{neighbor}, []*isa.Program{victim}
		for c := 2; c < k; c++ {
			progs[c] = []*isa.Program{benign}
		}
		return progs
	}
	var jobs []dieJob
	for _, v := range p.victims {
		victim, err := workload.Spec(v, seed)
		if err != nil {
			return nil, err
		}
		job := func(key string, progs [][]*isa.Program, scope dtm.Scope, pol dtm.Kind) dieJob {
			return dieJob{key: v + "/" + key, cfg: cfg, progs: progs, scope: scope, pol: pol, warm: p.warmup}
		}
		switch name {
		case experiment.NameDTMScope:
			jobs = append(jobs,
				job("stopgo", die(v2, victim), dtm.ScopePerCore, dtm.StopAndGo),
				job("sedation", die(v2, victim), dtm.ScopePerCore, dtm.SelectiveSedation),
				job("chip-rr", die(v2, victim), dtm.ScopeChip, dtm.ChipRoundRobin))
		case experiment.NameNeighborHeat:
			jobs = append(jobs,
				job("benign", die(benign, victim), dtm.ScopePerCore, dtm.SelectiveSedation),
				job("trojan", die(v2, victim), dtm.ScopePerCore, dtm.SelectiveSedation))
		default:
			return nil, fmt.Errorf("die-sweep: no job list for experiment %q", name)
		}
	}
	return jobs, nil
}

// dieOp is one timed whole-die job, as Options.Progress reported it.
type dieOp struct {
	key     string
	cores   int
	elapsed time.Duration
	cycles  float64 // measured core-cycles
}

// sweepTotals sums the sweep.Summary of every table.
type sweepTotals struct {
	jobs, warmupRuns, warmupReused, forkPrefixes, forkReused int
	jobTime, idle                                            time.Duration
}

func (s *sweepTotals) add(sum *sweep.Summary) {
	s.jobs += sum.Jobs
	s.warmupRuns += sum.WarmupRuns
	s.warmupReused += sum.WarmupReused
	s.forkPrefixes += sum.ForkPrefixes
	s.forkReused += sum.ForkReused
	s.jobTime += sum.JobTime
	if idle := time.Duration(sum.Parallelism)*sum.WallTime - sum.JobTime; idle > 0 {
		s.idle += idle
	}
}

func (s *sweepTotals) metrics(m map[string]float64) {
	m["sweep.jobs"] = float64(s.jobs)
	m["sweep.job_busy_s"] = s.jobTime.Seconds()
	m["sweep.idle_s"] = s.idle.Seconds()
	m["sweep.warmup_runs"] = float64(s.warmupRuns)
	m["sweep.warmup_reused"] = float64(s.warmupReused)
	m["sweep.fork_prefixes"] = float64(s.forkPrefixes)
	m["sweep.fork_reused"] = float64(s.forkReused)
	if s.jobs > 0 {
		m["sweep.reuse_ratio"] = float64(s.warmupReused+s.forkReused) / float64(s.jobs)
	}
}

// runDieSweep is the die-sweep workload: the dtm-scope and
// neighbor-heat experiments on a 2-core and a 4-core grid die, run
// through experiment.RunContext one job at a time with the fork tree
// requested; one op is one whole-die job.
func runDieSweep(ctx context.Context, p params) (*report, error) {
	return dieRun(ctx, p, diePlanFor(p.seconds, p.traced))
}

func dieRun(ctx context.Context, p params, plan diePlan) (*report, error) {
	var setups []float64
	for i := 0; i < plan.setups; i++ {
		runtime.GC()
		start := time.Now()
		// One untimed whole-die job per die size takes the first-touch
		// costs (program synthesis, grid geometry, code paths).
		for _, k := range plan.dies {
			jobs, err := dieJobs(plan, p.seed, experiment.NameNeighborHeat, k)
			if err != nil {
				return nil, err
			}
			if _, err := jobs[0].run(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}

	rep := &report{metrics: map[string]float64{}}
	h := sha256.New()
	var ops []dieOp
	var sw sweepTotals
	keys := map[string][]string{} // "<cores>-core <experiment>" -> job keys of its last run
	timed := time.Now()
	for pass := 0; pass < plan.passes; pass++ {
		for _, k := range plan.dies {
			cfg := dieConfig(plan, p.seed, k)
			for _, name := range plan.experiments {
				want, err := dieJobs(plan, p.seed, name, k)
				if err != nil {
					return nil, err
				}
				var got []dieOp
				var jobErrs int
				tab, err := experiment.RunContext(ctx, name, experiment.Options{
					Config: &cfg, Benchmarks: plan.victims, Quantum: plan.quantum, Warmup: plan.warmup,
					Parallelism: 1, ForkTree: true, Seed: p.seed, SeedSet: true,
					Progress: func(pr sweep.Progress) {
						if pr.Err != nil {
							jobErrs++
							return
						}
						got = append(got, dieOp{key: pr.Key, cores: k, elapsed: pr.Elapsed,
							cycles: pr.Metrics[sweep.MetricSimCycles] * float64(k)})
					},
				})
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				rep.ops += len(want)
				tag := fmt.Sprintf("%d-core %s", k, name)
				switch {
				case err != nil:
					rep.fail("%s: %v", tag, err)
				case len(tab.Rows) != len(plan.victims):
					rep.fail("%s: %d rows for %d victims", tag, len(tab.Rows), len(plan.victims))
				case tab.Summary == nil || tab.Summary.Failed != 0 || tab.Summary.Skipped != 0:
					rep.fail("%s: summary reports failed or skipped jobs: %+v", tag, tab.Summary)
				case len(got) != len(want) || jobErrs != 0:
					rep.fail("%s: %d jobs succeeded of %d", tag, len(got), len(want))
				default:
					ops = append(ops, got...)
					sw.add(tab.Summary)
					rows, _ := json.Marshal(tab.Rows)
					fmt.Fprintf(h, "%s %s\n", tag, rows)
					keys[tag] = nil
					for _, op := range got {
						keys[tag] = append(keys[tag], op.key)
					}
					continue
				}
				rep.failed += len(want)
			}
		}
	}
	elapsed := time.Since(timed).Seconds()
	rep.digest = hex.EncodeToString(h.Sum(nil))
	var lat []float64
	var cycles float64
	for _, op := range ops {
		lat = append(lat, ms(op.elapsed))
		cycles += op.cycles
	}
	if !p.traced {
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["sim_mcps"] = cycles / elapsed / 1e6
		rep.metrics["op_ms_p50"] = median(lat)
		// A run holds too few jobs for a tail percentile with ten
		// samples beyond it: nearest-rank p99 of 20 jobs is the slowest.
		rep.metrics["op_ms_p99"] = percentile(lat, 99)
		// Every job simulates: nothing is served from a cache.
		rep.metrics["miss_ms_p50"] = median(lat)
		fmt.Fprintf(p.log, "die-sweep: %d jobs in %.1fs, op p50 %.1f ms, setups %v s\n", len(lat), elapsed, median(lat), setups)
		for _, op := range ops {
			fmt.Fprintf(p.log, "die-sweep:   %d-core %-16s %7.1f ms\n", op.cores, op.key, ms(op.elapsed))
		}
		return rep, nil
	}
	sw.metrics(rep.metrics)
	return rep, dieSplit(ctx, p, plan, rep, keys, lat)
}

// dieSplit is the traced part of die-sweep: every job again through
// sim.MultiSimulator and through the replica, whose per-layer times are
// reported only if every job's results match sim's exactly.
func dieSplit(ctx context.Context, p params, plan diePlan, rep *report, keys map[string][]string, untraced []float64) error {
	spans := newSpanLog()
	var tot simTotals
	var traced []float64
	mismatch := ""
	for _, k := range plan.dies {
		for _, name := range plan.experiments {
			jobs, err := dieJobs(plan, p.seed, name, k)
			if err != nil {
				return err
			}
			tag := fmt.Sprintf("%d-core %s", k, name)
			if seen := keys[tag]; fmt.Sprint(seen) != fmt.Sprint(jobKeys(jobs)) && mismatch == "" {
				mismatch = fmt.Sprintf("%s: replica jobs %v, experiment ran %v", tag, jobKeys(jobs), seen)
			}
			for _, j := range jobs {
				if err := ctx.Err(); err != nil {
					return err
				}
				want, err := j.run()
				if err != nil {
					return err
				}
				tot.add(want.Cycles, want.Emergencies, want.Cores, 1)
				var clk layerClock
				start := time.Now()
				r, err := newReplica(j.spec(), &clk)
				if err != nil {
					return err
				}
				got, err := r.run(j.cfg.Run.QuantumCycles)
				if err != nil {
					return err
				}
				end := time.Now()
				traced = append(traced, ms(end.Sub(start)))
				if err := matchMulti(got, want); err != nil && mismatch == "" {
					mismatch = fmt.Sprintf("%s %s: %v", tag, j.key, err)
				}
				var stalled int64
				for _, c := range got.cores {
					stalled += c.stall
				}
				spans.op("die.job", start, end, clk, map[string]string{"job": tag + " " + j.key},
					map[string]string{"insts": strconv.FormatInt(sumCommitted(got), 10),
						"stalled": strconv.FormatInt(stalled, 10)})
			}
		}
	}
	tot.metrics(rep.metrics)
	splitMetrics(rep, p, spans, "die.job", "die-sweep", mismatch, untraced, traced)
	return nil
}

func jobKeys(jobs []dieJob) []string {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.key
	}
	return keys
}
