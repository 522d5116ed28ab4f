package experiment

import (
	"context"

	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// defaultSubset picks a small representative benchmark set for the
// sensitivity studies when the caller didn't narrow one (the paper uses
// the full suite; the subset keeps run time proportionate while
// covering high-IPC integer, branchy integer, FP, and memory-bound
// behaviour).
func (o Options) subset() []string {
	if len(o.Benchmarks) <= 6 {
		return o.Benchmarks
	}
	want := []string{"crafty", "gcc", "applu", "mcf"}
	have := make(map[string]bool, len(o.Benchmarks))
	for _, b := range o.Benchmarks {
		have[b] = true
	}
	var out []string
	for _, w := range want {
		if have[w] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = o.Benchmarks[:4]
	}
	return out
}

// HeatSink reproduces Section 5.5: both the damage from heat stroke and
// the effectiveness of selective sedation are qualitatively unchanged
// as the package improves (smaller convection resistance). The sweep
// runs each benchmark with Variant2 under stop-and-go and under
// sedation for a range of convection resistances.
func HeatSink(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	resistances := []float64{0.8, 0.65, 0.5, 0.35}
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
		for _, r := range resistances {
			for _, pol := range []dtm.Kind{dtm.StopAndGo, dtm.SelectiveSedation} {
				j := pairJob(o, fmt.Sprintf("%s/%.2f/%s", b, r, pol), spec, v2, pol, false)
				j.cfg.Thermal.ConvectionRes = r
				jobs = append(jobs, j)
			}
			j := soloJob(o, fmt.Sprintf("%s/%.2f/solo", b, r), spec, dtm.StopAndGo, false)
			j.cfg.Thermal.ConvectionRes = r
			jobs = append(jobs, j)
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Section 5.5: Heat-sink sensitivity (SPEC IPC with Variant2, by convection resistance)",
		Columns: []string{"benchmark", "R (K/W)", "solo IPC", "attack IPC", "sedation IPC", "attack emergencies"},
	}
	for _, b := range benches {
		for _, r := range resistances {
			solo := results[fmt.Sprintf("%s/%.2f/solo", b, r)]
			atk := results[fmt.Sprintf("%s/%.2f/%s", b, r, dtm.StopAndGo)]
			sed := results[fmt.Sprintf("%s/%.2f/%s", b, r, dtm.SelectiveSedation)]
			table.Rows = append(table.Rows, []string{
				b, f2(r),
				f2(solo.Threads[0].IPC),
				f2(atk.Threads[0].IPC),
				f2(sed.Threads[0].IPC),
				fmt.Sprintf("%d", atk.Emergencies),
			})
		}
	}
	table.Notes = append(table.Notes,
		"paper claim: better packaging does not remove the attack; sedation stays effective at every resistance")
	table.Summary = sum
	return table, nil
}

// Thresholds reproduces Section 5.6: selective sedation's effectiveness
// is not critically sensitive to the exact upper/lower thresholds. The
// sweep varies the threshold pair and reports the victim's IPC and the
// emergency count under a Variant2 attack.
func Thresholds(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	pairs := []struct{ upper, lower float64 }{
		{355.5, 354.5},
		{356.0, 355.0}, // the paper's default
		{356.5, 355.5},
		{357.0, 355.5},
	}
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
		jobs = append(jobs, soloJob(o, b+"/solo", spec, dtm.StopAndGo, false))
		for _, p := range pairs {
			j := pairJob(o, fmt.Sprintf("%s/%.1f-%.1f", b, p.upper, p.lower), spec, v2, dtm.SelectiveSedation, false)
			j.cfg.Sedation.UpperK = p.upper
			j.cfg.Sedation.LowerK = p.lower
			jobs = append(jobs, j)
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Section 5.6: Threshold robustness (victim IPC under Variant2 with selective sedation)",
		Columns: []string{"benchmark", "solo IPC", "355.5/354.5", "356.0/355.0", "356.5/355.5", "357.0/355.5", "emergencies (default)"},
	}
	for _, b := range benches {
		row := []string{b, f2(results[b+"/solo"].Threads[0].IPC)}
		for _, p := range pairs {
			row = append(row, f2(results[fmt.Sprintf("%s/%.1f-%.1f", b, p.upper, p.lower)].Threads[0].IPC))
		}
		row = append(row, fmt.Sprintf("%d", results[fmt.Sprintf("%s/356.0-355.0", b)].Emergencies))
		table.Rows = append(table.Rows, row)
	}
	table.Notes = append(table.Notes,
		"paper claim: effectiveness is not critically sensitive to the thresholds chosen")
	table.Summary = sum
	return table, nil
}

// ThresholdsDense extends Section 5.6 with a dense sensitivity scan
// over the sedation thresholds: upper thresholds from 355.0 K to
// 358.0 K in 0.5 K steps (the ceiling stays below the 358.5 K
// emergency threshold config validation enforces), each with the lower
// threshold 0.5 K and 1.0 K below — 14 pairs per benchmark plus a solo
// baseline. At 15 simulations per benchmark the scan is only
// affordable because every threshold variant of a benchmark shares one
// warm state: the thresholds are engine-only inputs, excluded from
// config.WarmDigest, so the sweep warms once per benchmark instead of
// once per grid point.
func ThresholdsDense(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	type pair struct{ upper, lower float64 }
	var pairs []pair
	for i := 0; i <= 6; i++ {
		u := 355.0 + 0.5*float64(i)
		pairs = append(pairs, pair{u, u - 0.5}, pair{u, u - 1.0})
	}
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
		jobs = append(jobs, soloJob(o, b+"/solo", spec, dtm.StopAndGo, false))
		for _, p := range pairs {
			j := pairJob(o, fmt.Sprintf("%s/%.1f-%.1f", b, p.upper, p.lower), spec, v2, dtm.SelectiveSedation, false)
			j.cfg.Sedation.UpperK = p.upper
			j.cfg.Sedation.LowerK = p.lower
			jobs = append(jobs, j)
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Section 5.6 (dense): Threshold sensitivity scan (victim under Variant2 with selective sedation)",
		Columns: []string{"benchmark", "upper K", "lower K", "solo IPC", "victim IPC", "emergencies", "sedations"},
	}
	for _, b := range benches {
		solo := results[b+"/solo"]
		for _, p := range pairs {
			r := results[fmt.Sprintf("%s/%.1f-%.1f", b, p.upper, p.lower)]
			table.Rows = append(table.Rows, []string{
				b, f1(p.upper), f1(p.lower),
				f2(solo.Threads[0].IPC),
				f2(r.Threads[0].IPC),
				fmt.Sprintf("%d", r.Emergencies),
				fmt.Sprintf("%d", r.Sedation.Sedations),
			})
		}
	}
	table.Notes = append(table.Notes,
		"dense grid over upper 355.0-358.0 K (step 0.5) x lower offsets {0.5, 1.0} K; paper claim: effectiveness is not critically sensitive to the thresholds chosen")
	table.Summary = sum
	return table, nil
}

// SpecPairs reproduces Section 5.7: with no malicious thread present,
// selective sedation does not hurt pairs of normal programs. Every
// adjacent pair of benchmarks runs under stop-and-go and under
// sedation; per-thread IPCs should match closely.
func SpecPairs(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.Benchmarks
	if len(benches) < 2 {
		return nil, fmt.Errorf("experiment: specpairs needs at least two benchmarks")
	}
	var jobs []job
	for i := 0; i < len(benches); i++ {
		a, b := benches[i], benches[(i+1)%len(benches)]
		ta, err := specThread(a, o.Seed)
		if err != nil {
			return nil, err
		}
		tb, err := specThread(b, o.Seed+1)
		if err != nil {
			return nil, err
		}
		key := a + "+" + b
		jobs = append(jobs,
			pairJob(o, key+"/stopgo", ta, tb, dtm.StopAndGo, false),
			pairJob(o, key+"/sedation", ta, tb, dtm.SelectiveSedation, false),
		)
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "Section 5.7: SPEC pairs without malicious threads (sedation vs stop-and-go)",
		Columns: []string{"pair", "A stopgo", "A sedation", "B stopgo", "B sedation", "sedations", "emergencies stopgo"},
	}
	var worst float64
	for i := 0; i < len(benches); i++ {
		a, b := benches[i], benches[(i+1)%len(benches)]
		key := a + "+" + b
		sg := results[key+"/stopgo"]
		sd := results[key+"/sedation"]
		table.Rows = append(table.Rows, []string{
			key,
			f2(sg.Threads[0].IPC), f2(sd.Threads[0].IPC),
			f2(sg.Threads[1].IPC), f2(sd.Threads[1].IPC),
			fmt.Sprintf("%d", sd.Sedation.Sedations),
			fmt.Sprintf("%d", sg.Emergencies),
		})
		for t := 0; t < 2; t++ {
			if d := 1 - (sd.Threads[t].IPC+sg.Threads[t].IPC*0)/maxf(sg.Threads[t].IPC, 1e-9); d > worst {
				worst = d
			}
		}
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("worst per-thread slowdown of sedation vs stop-and-go: %.1f%% (paper: sedation does not adversely affect normal pairs)", 100*worst))
	table.Summary = sum
	return table, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
