package experiment

import (
	"context"

	"fmt"

	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// AblationFlatAverage evaluates the Section 3.2.1 argument that a flat
// access count cannot identify culprits: it runs each benchmark with
// Variant2 under selective sedation twice — once with the paper's
// weighted average, once with a total-count metric — and reports which
// thread got sedated and the victim's IPC. Under the flat metric the
// steady SPEC thread can out-count the bursty attacker and be sedated
// in its place.
func AblationFlatAverage(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	var jobs []job
	for _, b := range benches {
		spec, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		v2, err := variantThread(2, o.Config.Thermal.Scale)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, pairJob(o, b+"/ewma", spec, v2, dtm.SelectiveSedation, false))
		flat := pairJob(o, b+"/flat", spec, v2, dtm.SelectiveSedation, false)
		flat.cfg.Sedation.UseFlatAverage = true
		jobs = append(jobs, flat)
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Ablation: weighted average vs flat count for culprit identification (victim + Variant2)",
		Columns: []string{"benchmark", "victim IPC (ewma)", "victim IPC (flat)", "victim sedations (ewma)", "victim sedations (flat)"},
	}
	for _, b := range benches {
		ew := results[b+"/ewma"]
		fl := results[b+"/flat"]
		table.Rows = append(table.Rows, []string{
			b,
			f2(ew.Threads[0].IPC), f2(fl.Threads[0].IPC),
			fmt.Sprintf("%d", victimSedations(ew.Reports, 0)),
			fmt.Sprintf("%d", victimSedations(fl.Reports, 0)),
		})
	}
	table.Notes = append(table.Notes,
		"paper claim (3.2.1): simply counting total accesses misidentifies steady normal threads as culprits")
	table.Summary = sum
	return table, nil
}

// AblationAbsoluteThreshold evaluates the Section 3.2.1 argument
// against policing threads with an absolute weighted-average threshold
// instead of a temperature trigger: a low threshold falsely sedates
// normal programs' bursts; a high threshold lets the attacker through.
func AblationAbsoluteThreshold(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	thresholds := []float64{4, 8, 20}
	var jobs []job
	for _, b := range benches {
		spec, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		v2, err := variantThread(2, o.Config.Thermal.Scale)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			pairJob(o, b+"/temp", spec, v2, dtm.SelectiveSedation, false),
			soloJob(o, b+"/solo", spec, dtm.StopAndGo, false),
		)
		for _, th := range thresholds {
			j := pairJob(o, fmt.Sprintf("%s/abs%.0f", b, th), spec, v2, dtm.SelectiveSedation, false)
			j.cfg.Sedation.AbsoluteEWMAThreshold = th
			jobs = append(jobs, j)
			js := soloJob(o, fmt.Sprintf("%s/soloabs%.0f", b, th), spec, dtm.SelectiveSedation, false)
			js.cfg.Sedation.AbsoluteEWMAThreshold = th
			jobs = append(jobs, js)
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Ablation: temperature trigger vs absolute weighted-average threshold",
		Columns: []string{
			"benchmark", "solo IPC", "victim IPC (temp)",
			"victim IPC (abs=4)", "victim IPC (abs=8)", "victim IPC (abs=20)",
			"attack emergencies (abs=20)",
		},
	}
	for _, b := range benches {
		row := []string{b,
			f2(results[b+"/solo"].Threads[0].IPC),
			f2(results[b+"/temp"].Threads[0].IPC),
		}
		for _, th := range thresholds {
			row = append(row, f2(results[fmt.Sprintf("%s/abs%.0f", b, th)].Threads[0].IPC))
		}
		row = append(row, fmt.Sprintf("%d", results[b+"/abs20"].Emergencies))
		table.Rows = append(table.Rows, row)
	}
	table.Notes = append(table.Notes,
		"paper claim (3.2.1): low absolute thresholds cause false positives; raising them lets heat stroke through undetected")
	table.Summary = sum
	return table, nil
}

// AblationMultiCulprit exercises the 2x-cooling-time re-examination of
// Section 3.2.2 on a 4-context SMT running two victims and two copies
// of Variant2: sedating the first culprit is not enough, so the engine
// must re-examine and sedate the second.
func AblationMultiCulprit(ctx context.Context, o Options) (*Table, error) {
	explicitQuantum := o.Quantum > 0
	o = o.normalized()
	if !explicitQuantum {
		o.Quantum = DefaultQuantum(NameMulti, *o.Config)
	}
	benches := o.subset()
	if len(benches) < 2 {
		return nil, fmt.Errorf("experiment: multiculprit needs two benchmarks")
	}
	a, b := benches[0], benches[1]
	ta, err := specThread(a, o.Seed)
	if err != nil {
		return nil, err
	}
	tb, err := specThread(b, o.Seed+1)
	if err != nil {
		return nil, err
	}
	// Two moderate attackers: combined they overheat the register file,
	// but each alone only holds it between the thresholds — the regime
	// where sedating the first culprit is not enough and the
	// 2x-cooling-time re-examination must catch the second (§3.2.2).
	v2a, err := variantThread(3, o.Config.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	v2b, err := variantThread(3, o.Config.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	v2b.Name = "variant3b"

	mk := func(key string, policy dtm.Kind) job {
		j := soloJob(o, key, ta, policy, false)
		j.cfg.Pipeline.Contexts = 4
		j.cfg.Pipeline.FetchThreads = 2
		// Tighten the re-examination window for the ablation: with the
		// paper's 2x-cooling delay the lower threshold is usually
		// re-crossed first at this thermal scale, so the second-culprit
		// path would be exercised only by the unit tests.
		j.cfg.Sedation.ExpectedCoolingCycles = 250_000
		j.cores[0] = append(j.cores[0], tb, v2a, v2b)
		return j
	}
	results, sum, err := runSweep(ctx, []job{
		mk("stopgo", dtm.StopAndGo),
		mk("sedation", dtm.SelectiveSedation),
	}, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   fmt.Sprintf("Ablation: two simultaneous attackers on a 4-context SMT (%s, %s, 2x variant3)", a, b),
		Columns: []string{"thread", "IPC stop-and-go", "IPC sedation", "sedated fraction"},
	}
	sg, sd := results["stopgo"], results["sedation"]
	for i := range sd.Threads {
		_, _, sedFrac := sd.Threads[i].Breakdown.Fractions()
		table.Rows = append(table.Rows, []string{
			sd.Threads[i].Name,
			f2(sg.Threads[i].IPC),
			f2(sd.Threads[i].IPC),
			pct(sedFrac),
		})
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("sedation events %d, re-examinations %d, emergencies stopgo=%d sedation=%d",
			sd.Sedation.Sedations, sd.Sedation.Reexaminations, sg.Emergencies, sd.Emergencies))
	table.Summary = sum
	return table, nil
}

// victimSedations counts OS reports naming the given thread.
func victimSedations(reports []score.Report, tid int) int {
	n := 0
	for _, r := range reports {
		if r.Thread == tid {
			n++
		}
	}
	return n
}
