// Multi-core experiments: the neighbor-heat attack (one core's power
// density heating a victim core across the die) and the DTM-scope
// comparison (per-core policies vs the chip-wide round-robin). Both
// run on the grid thermal solver over a NewDie(K) floorplan; they are
// the only experiments that do, so every single-core experiment stays
// on the lumped fast path byte-identically. Their jobs run through the
// same runSweep, warm keys and warm store as every other experiment's.
package experiment

import (
	"context"
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// multiTopology resolves the die topology a multi-core experiment
// runs: the Config's topology when it names more than one core, else
// the two-core grid default. The solver is always the grid — the
// lumped network cannot model a second core.
func (o Options) multiTopology() config.Topology {
	top := o.Config.Topology
	if top.Cores <= 1 {
		top.Cores = 2
	}
	if top.Solver == "" || top.Solver == config.SolverLumped {
		top.Solver = config.SolverGrid
	}
	return top
}

// dieJob builds a whole-die run: one thread set per core, one DTM
// scope and policy.
func dieJob(o Options, key string, cores [][]sim.Thread, scope dtm.Scope, policy dtm.Kind) job {
	cfg := *o.Config
	cfg.Run.QuantumCycles = o.Quantum
	cfg.Run.Seed = o.Seed
	cfg.Topology = o.multiTopology()
	return job{
		key:   key,
		cfg:   cfg,
		cores: cores,
		opts: sim.Options{
			Scope:              scope,
			Policy:             policy,
			WarmupCycles:       o.Warmup,
			DisableFastForward: o.DisableFastForward,
		},
	}
}

// neighborBenign is the benign co-resident the baseline rows run on
// core 0: a low-power SPEC program, so the victim's baseline die is a
// normally loaded one, not an idle one.
const neighborBenign = "art"

// NeighborHeat reproduces the cross-core form of the attack: the
// victim benchmark runs ALONE on core 1 — selective sedation cannot
// touch a solo thread (the last-thread exception) and no thread on the
// victim core misbehaves — while core 0 runs either a benign neighbor
// or the Variant2 trojan. Every effect on the victim arrives through
// the silicon: the trojan's power density conducts across the die and
// drives the victim core's sensors toward the emergency threshold, so
// the victim's own stop-and-go safety net does the attacker's work.
func NeighborHeat(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	top := o.multiTopology()
	v2, err := variantThread(2, o.Config.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	benign, err := specThread(neighborBenign, o.Seed)
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, b := range o.Benchmarks {
		victim, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		// Core 0 hosts the neighbor, core 1 the victim; extra cores (when
		// -cores > 2) run the benign neighbor so the only variable between
		// the two rows is core 0's program.
		mk := func(neighbor sim.Thread) [][]sim.Thread {
			ct := make([][]sim.Thread, top.Cores)
			ct[0] = []sim.Thread{neighbor}
			ct[1] = []sim.Thread{victim}
			for c := 2; c < top.Cores; c++ {
				ct[c] = []sim.Thread{benign}
			}
			return ct
		}
		jobs = append(jobs,
			dieJob(o, b+"/benign", mk(benign), dtm.ScopePerCore, dtm.SelectiveSedation),
			dieJob(o, b+"/trojan", mk(v2), dtm.ScopePerCore, dtm.SelectiveSedation),
		)
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Neighbor heat: victim core under a trojan neighbor (per-core sedation)",
		Columns: []string{"benchmark", "victim IPC benign", "victim IPC trojan", "slowdown",
			"victim emergencies", "victim stall%",
			"victim IntReg benign K", "victim IntReg trojan K", "trojan core peak K"},
	}
	for _, b := range o.Benchmarks {
		bn, ok1 := results[b+"/benign"]
		tr, ok2 := results[b+"/trojan"]
		if !ok1 || !ok2 {
			continue
		}
		vb, vt := bn.Cores[1], tr.Cores[1]
		ipcB, ipcT := vb.Threads[0].IPC, vt.Threads[0].IPC
		slow := 0.0
		if ipcB > 0 {
			slow = 1 - ipcT/ipcB
		}
		stall := float64(vt.StopGoCycles) / float64(tr.Cycles)
		table.Rows = append(table.Rows, []string{
			b, f2(ipcB), f2(ipcT), pct(slow),
			fmt.Sprintf("%d", vt.Emergencies), pct(stall),
			f2(vb.FinalTemps[power.UnitIntReg]), f2(vt.FinalTemps[power.UnitIntReg]),
			f2(tr.Cores[0].PeakTemp),
		})
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("%d-core %s die, grid %d; victim solo on core 1 (sedation's last-thread exception), neighbor on core 0",
			top.Cores, top.Solver, top.EffectiveGridN()),
		"victim stalls are its own safety net reacting to heat conducted from the neighbor core")
	table.Summary = sum
	return table, nil
}

// DTMScope compares where the throttle burden lands when DTM observes
// one core vs the whole die: per-core stop-and-go and sedation pin the
// penalty on whichever core crosses the threshold (under neighbor
// heat, the victim), while the chip-wide round-robin rotates a
// temperature-banded throttle over every core, attacker included.
func DTMScope(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	top := o.multiTopology()
	v2, err := variantThread(2, o.Config.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	benign, err := specThread(neighborBenign, o.Seed)
	if err != nil {
		return nil, err
	}
	scopes := []struct {
		key    string
		scope  dtm.Scope
		policy dtm.Kind
	}{
		{"stopgo", dtm.ScopePerCore, dtm.StopAndGo},
		{"sedation", dtm.ScopePerCore, dtm.SelectiveSedation},
		{"chip-rr", dtm.ScopeChip, dtm.ChipRoundRobin},
	}
	var jobs []job
	for _, b := range o.Benchmarks {
		victim, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		ct := make([][]sim.Thread, top.Cores)
		ct[0] = []sim.Thread{v2}
		ct[1] = []sim.Thread{victim}
		for c := 2; c < top.Cores; c++ {
			ct[c] = []sim.Thread{benign}
		}
		for _, sc := range scopes {
			jobs = append(jobs, dieJob(o, b+"/"+sc.key, ct, sc.scope, sc.policy))
		}
	}
	results, sum, err := runSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "DTM scope: victim throughput under per-core vs chip-wide management (trojan on core 0)",
		Columns: []string{"benchmark", "IPC stopgo", "IPC sedation", "IPC chip-rr",
			"stall% stopgo", "stall% sedation", "stall% chip-rr"},
	}
	for _, b := range o.Benchmarks {
		row := []string{b}
		vals := make([]string, 0, 6)
		ok := true
		var ipc, stall []string
		for _, sc := range scopes {
			r, found := results[b+"/"+sc.key]
			if !found {
				ok = false
				break
			}
			v := r.Cores[1]
			ipc = append(ipc, f2(v.Threads[0].IPC))
			stall = append(stall, pct(float64(v.StopGoCycles)/float64(r.Cycles)))
		}
		if !ok {
			continue
		}
		vals = append(vals, ipc...)
		vals = append(vals, stall...)
		table.Rows = append(table.Rows, append(row, vals...))
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("%d-core %s die, grid %d; chip-rr rotates a temperature-banded throttle over all cores (CoMeT-style)",
			top.Cores, top.Solver, top.EffectiveGridN()))
	table.Summary = sum
	return table, nil
}
