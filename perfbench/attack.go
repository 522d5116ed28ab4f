package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

// attackRoundsPerSecond sizes attack-quanta: a round of four
// one-interval quanta takes 20-30 ms on the reference host (2-core x86
// container), so --seconds 30 runs 1020 rounds, enough for ten to lie
// beyond the nearest-rank p99.
const attackRoundsPerSecond = 34

// attackPlan is the fixed work of one attack-quanta run.
type attackPlan struct {
	victims  []string
	policies []dtm.Kind
	quantum  int64 // cycles per simulator per round
	warmup   int64
	rounds   int
	setups   int
}

func attackPlanFor(seconds int, traced bool) attackPlan {
	p := attackPlan{
		victims:  []string{"crafty", "mcf"},
		policies: []dtm.Kind{dtm.StopAndGo, dtm.SelectiveSedation},
		quantum:  int64(config.Default().Thermal.SensorIntervalCycles),
		warmup:   experiment.DefaultWarmupCycles,
		rounds:   seconds * attackRoundsPerSecond,
		setups:   3,
	}
	if traced {
		// Each traced round runs twice (sim, then the replicas), and the
		// traced run reports no set-up time.
		p.rounds = max(1, p.rounds/2)
		p.setups = 1
	}
	return p
}

// attackRig is the set of long-lived simulators (and, traced, their
// replicas) one round steps in a fixed order.
type attackRig struct {
	names []string
	sims  []*sim.Simulator
	reps  []*replica
	clk   layerClock
}

func buildAttack(p attackPlan, seed int64, traced bool) (*attackRig, error) {
	cfg := config.Default()
	v2, err := workload.VariantForScale(2, cfg.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	rig := &attackRig{}
	for _, v := range p.victims {
		for _, pol := range p.policies {
			prog, err := workload.Spec(v, subSeed(seed, len(rig.sims)))
			if err != nil {
				return nil, err
			}
			threads := []sim.Thread{{Name: v, Prog: prog}, {Name: "variant2", Prog: v2}}
			s, err := sim.New(cfg, threads, sim.Options{Policy: pol, WarmupCycles: p.warmup})
			if err != nil {
				return nil, err
			}
			rig.names = append(rig.names, v+"/"+string(pol))
			rig.sims = append(rig.sims, s)
			if !traced {
				continue
			}
			r, err := newReplica(replicaSpec{cfg: cfg, progs: [][]*isa.Program{{prog, v2}},
				policy: pol, warmup: p.warmup}, &rig.clk)
			if err != nil {
				return nil, err
			}
			r.warmup()
			rig.reps = append(rig.reps, r)
		}
	}
	return rig, nil
}

// checkQuantum is attack-quanta's output check on one quantum.
func checkQuantum(res *sim.Result, quantum int64) error {
	if res.Cycles != quantum {
		return fmt.Errorf("quantum ran %d cycles, asked %d", res.Cycles, quantum)
	}
	for _, t := range res.Threads {
		b := t.Breakdown
		if b.NormalCycles+b.CoolingCycles+b.SedationCycles != res.Cycles {
			return fmt.Errorf("thread %s breakdown %d+%d+%d does not sum to %d cycles",
				t.Name, b.NormalCycles, b.CoolingCycles, b.SedationCycles, res.Cycles)
		}
	}
	return nil
}

// simTotals sums the simulated statistics a traced run reports: the
// victim is the given core's first thread.
type simTotals struct {
	cycles, victimInsts, stopGo, coreCycles, threadCycles, sedated int64
	emergencies                                                    int
}

// add folds in one quantum: its length, its chip-wide emergencies and
// its per-core results.
func (t *simTotals) add(cycles int64, emergencies int, cores []sim.Result, victim int) {
	t.cycles += cycles
	t.emergencies += emergencies
	t.victimInsts += int64(cores[victim].Threads[0].Committed)
	for _, c := range cores {
		t.stopGo += c.StopGoCycles
		t.coreCycles += cycles
		for _, th := range c.Threads {
			t.threadCycles += cycles
			t.sedated += th.Breakdown.SedationCycles
		}
	}
}

func (t *simTotals) metrics(m map[string]float64) {
	m["sim.victim_ipc"] = ratio(t.victimInsts, t.cycles)
	m["sim.emergencies"] = float64(t.emergencies)
	m["sim.stopgo_frac"] = ratio(t.stopGo, t.coreCycles)
	m["sim.sedated_frac"] = ratio(t.sedated, t.threadCycles)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digestResult folds one quantum's simulated statistics into h.
func digestResult(h io.Writer, res *sim.Result) {
	fmt.Fprintf(h, "q %d %d %d %x\n", res.Cycles, res.StopGoCycles, res.Emergencies, math.Float64bits(res.PeakTemp))
	for _, t := range res.Threads {
		fmt.Fprintf(h, "t %d %d %d %d %d %d %d\n", t.Committed, t.Fetched, t.Mispredicts, t.L2Squashes,
			t.Breakdown.NormalCycles, t.Breakdown.CoolingCycles, t.Breakdown.SedationCycles)
	}
}

// runAttack is the attack-quanta workload: four long-lived single-core
// simulators pairing a victim with Variant2 under stop-and-go or
// selective sedation; one op is one round of a one-interval quantum on
// each, in a fixed order.
func runAttack(ctx context.Context, p params) (*report, error) {
	return attackRun(ctx, p, attackPlanFor(p.seconds, p.traced))
}

func attackRun(ctx context.Context, p params, plan attackPlan) (*report, error) {
	var rig *attackRig
	var setups []float64
	var buildStart, buildEnd time.Time
	var buildClk layerClock
	mismatch := ""
	for i := 0; i < plan.setups; i++ {
		rig = nil
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = buildAttack(plan, p.seed, p.traced); err != nil {
			return nil, err
		}
		buildStart, buildEnd, buildClk = start, time.Now(), rig.clk
		// The priming round: every simulator's first quantum also runs
		// its warmup, and the first rounds of a process run slow.
		primed := make([]*sim.Result, len(rig.sims))
		for j, s := range rig.sims {
			if primed[j], err = s.RunCycles(plan.quantum); err != nil {
				return nil, err
			}
		}
		for j, r := range rig.reps {
			rr, err := r.run(plan.quantum)
			if err != nil {
				return nil, err
			}
			if err := matchSingle(rr, primed[j]); err != nil && mismatch == "" {
				mismatch = fmt.Sprintf("priming round %s: %v", rig.names[j], err)
			}
		}
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}

	rep := &report{metrics: map[string]float64{}}
	var tot simTotals
	h := sha256.New()
	var spans *spanLog
	if p.traced {
		spans = newSpanLog()
		spans.op("attack.setup", buildStart, buildEnd, buildClk, nil, nil)
	}
	base := rig.clk
	var untraced, traced []float64
	timed := time.Now()
	for i := 0; i < plan.rounds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.ops++
		start := time.Now()
		results := make([]*sim.Result, len(rig.sims))
		var opErr error
		for j, s := range rig.sims {
			res, err := s.RunCycles(plan.quantum)
			if err == nil {
				err = checkQuantum(res, plan.quantum)
			}
			if err != nil {
				opErr = fmt.Errorf("round %d %s: %w", i, rig.names[j], err)
				break
			}
			results[j] = res
		}
		untraced = append(untraced, ms(time.Since(start)))
		if opErr != nil {
			rep.failed++
			rep.fail("%v", opErr)
			continue
		}
		for _, res := range results {
			tot.add(res.Cycles, res.Emergencies, []sim.Result{*res}, 0)
			digestResult(h, res)
		}
		if !p.traced {
			continue
		}
		start = time.Now()
		var insts, stalled int64
		for j, r := range rig.reps {
			rr, err := r.run(plan.quantum)
			if err != nil {
				return nil, err
			}
			if err := matchSingle(rr, results[j]); err != nil && mismatch == "" {
				mismatch = fmt.Sprintf("round %d %s: %v", i, rig.names[j], err)
			}
			insts += sumCommitted(rr)
			stalled += rr.cores[0].stall
		}
		end := time.Now()
		traced = append(traced, ms(end.Sub(start)))
		spans.op("attack.round", start, end, rig.clk.sub(base), map[string]string{"round": strconv.Itoa(i)},
			map[string]string{"insts": strconv.FormatInt(insts, 10), "stalled": strconv.FormatInt(stalled, 10)})
		base = rig.clk
	}
	elapsed := time.Since(timed).Seconds()
	rep.digest = hex.EncodeToString(h.Sum(nil))
	if !p.traced {
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["sim_mcps"] = float64(tot.cycles) / elapsed / 1e6
		rep.metrics["op_ms_p50"] = median(untraced)
		rep.metrics["op_ms_p99"] = percentile(untraced, 99)
		// Every round simulates: there is no cache to hit.
		rep.metrics["miss_ms_p50"] = median(untraced)
		fmt.Fprintf(p.log, "attack-quanta: %d rounds in %.1fs, op p50 %.2f ms, p99 %.2f ms (%d beyond), setups %v s\n",
			len(untraced), elapsed, median(untraced), percentile(untraced, 99), beyond(len(untraced), 99), setups)
		return rep, nil
	}
	tot.metrics(rep.metrics)
	splitMetrics(rep, p, spans, "attack.round", "attack-quanta", mismatch, untraced, traced)
	return rep, nil
}

// sumCommitted counts the instructions every thread of a replica
// quantum committed.
func sumCommitted(rr *replicaResult) int64 {
	var n int64
	for _, c := range rr.cores {
		for _, t := range c.threads {
			n += int64(t.Committed)
		}
	}
	return n
}

// splitMetrics adds a traced run's layer split, written out as spans,
// unless the replicas diverged from sim: then the split is reported as
// unavailable (zero) rather than wrong.
func splitMetrics(rep *report, p params, spans *spanLog, op, name, mismatch string, untraced, traced []float64) {
	base := fmt.Sprintf("%s-seed%d", name, p.seed)
	if err := spans.write(filepath.Join(p.outDir, "traces"), base); err != nil {
		fmt.Fprintf(p.log, "%s: writing spans: %v\n", name, err)
	}
	if mismatch != "" {
		fmt.Fprintf(p.log, "%s: split unavailable: replica diverged from sim: %s\n", name, mismatch)
		rep.metrics["trace.split_available"] = 0
		return
	}
	for k, v := range layerMetrics(spans.spans(), op) {
		rep.metrics[k] = v
	}
	rep.metrics["trace.split_available"] = 1
	if u := median(untraced); u > 0 {
		rep.metrics["trace.overhead_pct"] = 100 * (median(traced) - u) / u
	}
}
