package experiment

import (
	"context"
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// Figure3 reproduces the average integer-register-file access rates:
// each SPEC program and each malicious variant runs alone for one
// quantum with an ideal heat sink (so the intrinsic access behaviour is
// measured, not the thermal stalls), and the flat average
// accesses/cycle is reported. The paper's claims to reproduce: every
// SPEC program stays below ~6/cycle; Variant1 is far above the SPEC
// range; Variants 2 and 3 fall inside it (indistinguishable by flat
// average).
func Figure3(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	var jobs []job
	for _, b := range o.Benchmarks {
		t, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, soloJob(o, b, t, dtm.None, true))
	}
	for v := 1; v <= 3; v++ {
		t, err := variantThread(v, o.Config.Thermal.Scale)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, soloJob(o, t.Name, t, dtm.None, true))
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Figure 3: Average integer register-file access rate (accesses/cycle, solo runs)",
		Columns: []string{"program", "accesses/cycle", "IPC"},
	}
	var specMax float64
	for _, key := range sortedKeys(results) {
		r := results[key]
		tr := r.Threads[0]
		table.Rows = append(table.Rows, []string{key, f2(tr.IntRegRate), f2(tr.IPC)})
		if key[0] != 'v' && tr.IntRegRate > specMax {
			specMax = tr.IntRegRate
		}
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("SPEC ceiling %.2f/cycle; paper reports all SPEC below ~6 with variant1 ~10, variant2 ~4, variant3 ~1.5", specMax))
	table.Summary = sum
	return table, nil
}

// Figure4 reproduces the number of temperature emergencies in one OS
// quantum: each benchmark runs (1) alone, (2) with Variant2 under
// stop-and-go, (3) with Variant2 under selective sedation. The paper's
// claims: few or no emergencies solo, a large increase under attack,
// and restoration to roughly the solo count under sedation.
func Figure4(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	var jobs []job
	for _, b := range o.Benchmarks {
		spec, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		v2, err := variantThread(2, o.Config.Thermal.Scale)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			soloJob(o, b+"/solo", spec, dtm.StopAndGo, false),
			pairJob(o, b+"/attack", spec, v2, dtm.StopAndGo, false),
			pairJob(o, b+"/sedation", spec, v2, dtm.SelectiveSedation, false),
		)
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Figure 4: Temperature emergencies per OS quantum",
		Columns: []string{"benchmark", "solo", "+variant2 (stop-and-go)", "+variant2 (sedation)"},
	}
	for _, b := range o.Benchmarks {
		table.Rows = append(table.Rows, []string{
			b,
			fmt.Sprintf("%d", results[b+"/solo"].Emergencies),
			fmt.Sprintf("%d", results[b+"/attack"].Emergencies),
			fmt.Sprintf("%d", results[b+"/sedation"].Emergencies),
		})
	}
	table.Summary = sum
	return table, nil
}

// Figure5 reproduces the headline IPC study: for every benchmark, the
// SPEC program's IPC under eleven configurations — solo with ideal and
// realistic heat sinks, then for each malicious variant the ideal-sink
// pair (isolating ICOUNT effects), the realistic-sink pair under
// stop-and-go (the heat-stroke damage), and the realistic-sink pair
// under selective sedation (the recovery).
func Figure5(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	var jobs []job
	for _, b := range o.Benchmarks {
		spec, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			soloJob(o, b+"/solo-ideal", spec, dtm.None, true),
			soloJob(o, b+"/solo-real", spec, dtm.StopAndGo, false),
		)
		for v := 1; v <= 3; v++ {
			vt, err := variantThread(v, o.Config.Thermal.Scale)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs,
				pairJob(o, fmt.Sprintf("%s/v%d-ideal", b, v), spec, vt, dtm.None, true),
				pairJob(o, fmt.Sprintf("%s/v%d-stopgo", b, v), spec, vt, dtm.StopAndGo, false),
				pairJob(o, fmt.Sprintf("%s/v%d-sedation", b, v), spec, vt, dtm.SelectiveSedation, false),
			)
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Figure 5: SPEC program IPC under heat stroke and selective sedation",
		Columns: []string{
			"benchmark", "solo ideal", "solo real",
			"v1 ideal", "v1 stopgo", "v1 sedate",
			"v2 ideal", "v2 stopgo", "v2 sedate",
			"v3 ideal", "v3 stopgo", "v3 sedate",
		},
	}
	var soloSum, attackSum, sedateSum float64
	for _, b := range o.Benchmarks {
		row := []string{b,
			f2(results[b+"/solo-ideal"].Threads[0].IPC),
			f2(results[b+"/solo-real"].Threads[0].IPC),
		}
		for v := 1; v <= 3; v++ {
			row = append(row,
				f2(results[fmt.Sprintf("%s/v%d-ideal", b, v)].Threads[0].IPC),
				f2(results[fmt.Sprintf("%s/v%d-stopgo", b, v)].Threads[0].IPC),
				f2(results[fmt.Sprintf("%s/v%d-sedation", b, v)].Threads[0].IPC),
			)
		}
		table.Rows = append(table.Rows, row)
		soloSum += results[b+"/solo-real"].Threads[0].IPC
		attackSum += results[b+"/v2-stopgo"].Threads[0].IPC
		sedateSum += results[b+"/v2-sedation"].Threads[0].IPC
	}
	n := float64(len(o.Benchmarks))
	table.Notes = append(table.Notes,
		fmt.Sprintf("variant2 mean IPC: solo-real %.2f, under attack %.2f (%.1f%% degradation), with sedation %.2f (paper: 1.28 solo, 88.2%% degradation, 1.29 restored)",
			soloSum/n, attackSum/n, 100*(1-attackSum/soloSum), sedateSum/n))
	table.Summary = sum
	return table, nil
}

// Figure6 reproduces the execution-time breakdown: the fraction of the
// quantum each benchmark spends in normal execution vs cooling stalls
// vs sedation, under (1) solo execution, (2) attack by Variant2 under
// stop-and-go, (3) attack under selective sedation — plus Variant2's
// own breakdown under sedation (it should spend most of its time
// sedated).
func Figure6(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	var jobs []job
	for _, b := range o.Benchmarks {
		spec, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		v2, err := variantThread(2, o.Config.Thermal.Scale)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			soloJob(o, b+"/solo", spec, dtm.StopAndGo, false),
			pairJob(o, b+"/attack", spec, v2, dtm.StopAndGo, false),
			pairJob(o, b+"/sedation", spec, v2, dtm.SelectiveSedation, false),
		)
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Figure 6: Execution-time breakdown (normal / cooling-stall / sedated)",
		Columns: []string{
			"benchmark",
			"solo normal", "solo cool",
			"attack normal", "attack cool",
			"sedation normal", "sedation cool",
			"variant2 sedated",
		},
	}
	for _, b := range o.Benchmarks {
		solo := results[b+"/solo"].Threads[0].Breakdown
		atk := results[b+"/attack"].Threads[0].Breakdown
		sed := results[b+"/sedation"].Threads[0].Breakdown
		v2 := results[b+"/sedation"].Threads[1].Breakdown
		sn, sc, _ := solo.Fractions()
		an, ac, _ := atk.Fractions()
		dn, dc, _ := sed.Fractions()
		_, _, vs := v2.Fractions()
		table.Rows = append(table.Rows, []string{
			b, pct(sn), pct(sc), pct(an), pct(ac), pct(dn), pct(dc), pct(vs),
		})
	}
	table.Summary = sum
	return table, nil
}

// soloJob builds a one-thread run on the paper's machine: one core on
// the lumped network, whatever die the configuration names (as sim.New
// runs it).
func soloJob(o Options, key string, t sim.Thread, policy dtm.Kind, ideal bool) job {
	cfg := *o.Config
	cfg.Run.QuantumCycles = o.Quantum
	cfg.Run.Seed = o.Seed
	cfg.Thermal.IdealSink = ideal
	cfg.Topology = config.Default().Topology
	return job{
		key:   key,
		cfg:   cfg,
		cores: [][]sim.Thread{{t}},
		opts:  sim.Options{Policy: policy, WarmupCycles: o.Warmup, DisableFastForward: o.DisableFastForward},
	}
}

// pairJob builds a two-thread run (benchmark first, attacker second).
func pairJob(o Options, key string, a, b sim.Thread, policy dtm.Kind, ideal bool) job {
	j := soloJob(o, key, a, policy, ideal)
	j.cores[0] = append(j.cores[0], b)
	return j
}
