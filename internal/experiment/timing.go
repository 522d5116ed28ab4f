package experiment

import (
	"context"

	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/stats"
)

// Timing measures the heat-stroke duty cycle the paper derives in
// Section 3.1: how long the attack takes to heat the register file to
// the emergency temperature, how long each forced cooling stall lasts,
// and the resulting duty cycle ("1.2/(1.2+12.5) = 0.09" in the paper,
// at the paper's time base). Times are reported both in scaled cycles
// (as simulated) and milliseconds at the paper's 4 GHz / scale-1 base.
func Timing(ctx context.Context, o Options) (*Table, error) {
	explicitQuantum := o.Quantum > 0
	o = o.normalized()
	if !explicitQuantum {
		o.Quantum = DefaultQuantum(NameTiming, *o.Config)
	}
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
		j := pairJob(o, b, spec, v2, dtm.StopAndGo, false)
		j.opts.CollectSamples = true
		jobs = append(jobs, j)
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Section 3.1 timing: heat-up and cooling durations under Variant2 (stop-and-go)",
		Columns: []string{
			"benchmark", "emergencies", "heat (Mcycles)", "cool (Mcycles)",
			"heat (ms @ scale 1)", "cool (ms @ scale 1)", "duty cycle",
		},
	}
	interval := float64(o.Config.Thermal.SensorIntervalCycles)
	scale := o.Config.Thermal.Scale
	freq := o.Config.Power.FrequencyHz
	toMs := func(cycles float64) float64 { return cycles * scale / freq * 1e3 }
	for _, b := range benches {
		r := results[b]
		heat, cool := heatCoolDurations(r, o.Config.Thermal.EmergencyK, interval)
		if len(heat) == 0 {
			table.Rows = append(table.Rows, []string{b, "0", "-", "-", "-", "-", "1.00"})
			continue
		}
		h, c := stats.Mean(heat), stats.Mean(cool)
		duty := h / (h + c)
		table.Rows = append(table.Rows, []string{
			b,
			fmt.Sprintf("%d", r.Emergencies),
			f2(h / 1e6), f2(c / 1e6),
			f2(toMs(h)), f2(toMs(c)),
			f2(duty),
		})
	}
	table.Notes = append(table.Notes,
		"paper (Section 3.1): a mildly malicious thread heats the register file in ~1.2 ms, each cooling stall is ~12.5 ms, duty cycle ~0.09")
	table.Summary = sum
	return table, nil
}

// heatCoolDurations extracts heat-up runs (resume -> emergency) and
// cooling stalls from the register file's temperature in the result's
// samples, one per sensor interval; a cooling stall is the fixed
// cooling period, recovered from the result's stall accounting.
func heatCoolDurations(r *sim.Result, emergencyK, intervalCycles float64) (heat, cool []float64) {
	if len(r.Samples) == 0 {
		return nil, nil
	}
	heatStart := 0
	above := false
	for i := range r.Samples {
		temp := r.Samples[i].UnitTempK[power.UnitIntReg]
		if !above && temp >= emergencyK {
			above = true
			heat = append(heat, float64(i-heatStart)*intervalCycles)
		} else if above && temp < emergencyK {
			above = false
			heatStart = i
		}
	}
	if r.Emergencies > 0 {
		per := float64(r.StopGoCycles) / float64(r.Emergencies)
		for i := 0; i < r.Emergencies; i++ {
			cool = append(cool, per)
		}
	}
	return heat, cool
}

// AblationFetchPolicy isolates the ICOUNT fetch policy's role: Variant1
// (the high-IPC aggressor) monopolizes fetch under ICOUNT but not under
// round-robin, yet heat stroke persists either way — the paper's
// argument that the attack "does not exploit ICOUNT in any way"
// (Section 1) made concrete.
func AblationFetchPolicy(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	var jobs []job
	for _, b := range benches {
		spec, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		v1, err := variantThread(1, o.Config.Thermal.Scale)
		if err != nil {
			return nil, err
		}
		for _, pol := range []string{"icount", "rr"} {
			ideal := pairJob(o, b+"/"+pol+"/ideal", spec, v1, dtm.None, true)
			ideal.cfg.Pipeline.FetchPolicy = pol
			real := pairJob(o, b+"/"+pol+"/real", spec, v1, dtm.StopAndGo, false)
			real.cfg.Pipeline.FetchPolicy = pol
			jobs = append(jobs, ideal, real)
		}
		jobs = append(jobs, soloJob(o, b+"/solo", spec, dtm.None, true))
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Ablation: fetch policy (victim IPC with Variant1)",
		Columns: []string{
			"benchmark", "solo",
			"icount ideal-sink", "icount realistic",
			"rr ideal-sink", "rr realistic",
		},
	}
	for _, b := range benches {
		table.Rows = append(table.Rows, []string{
			b,
			f2(results[b+"/solo"].Threads[0].IPC),
			f2(results[b+"/icount/ideal"].Threads[0].IPC),
			f2(results[b+"/icount/real"].Threads[0].IPC),
			f2(results[b+"/rr/ideal"].Threads[0].IPC),
			f2(results[b+"/rr/real"].Threads[0].IPC),
		})
	}
	table.Notes = append(table.Notes,
		"ideal-sink columns show the pure fetch-competition cost; realistic columns add the thermal attack, which survives the round-robin policy")
	table.Summary = sum
	return table, nil
}

// Policies compares every DTM baseline against the same Variant2
// attack: the victim's IPC and the machine's emergency behaviour under
// no management, stop-and-go, DVS, TTDFS, and selective sedation.
func Policies(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	benches := o.subset()
	kinds := []dtm.Kind{dtm.None, dtm.StopAndGo, dtm.DVS, dtm.TTDFS, dtm.SelectiveSedation}
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
		for _, k := range kinds {
			jobs = append(jobs, pairJob(o, b+"/"+string(k), spec, v2, k, false))
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   "DTM policy comparison under Variant2 (victim IPC / peak K)",
		Columns: []string{"benchmark", "none", "stopgo", "dvs", "ttdfs", "sedation"},
	}
	for _, b := range benches {
		row := []string{b}
		for _, k := range kinds {
			r := results[b+"/"+string(k)]
			row = append(row, fmt.Sprintf("%s/%.1f", f2(r.Threads[0].IPC), r.PeakTemp))
		}
		table.Rows = append(table.Rows, row)
	}
	table.Notes = append(table.Notes,
		"'none' and 'ttdfs' let the die exceed the emergency temperature (the paper's reason for excluding TTDFS); sedation keeps both the victim fast and the die cool")
	table.Summary = sum
	return table, nil
}
