package experiment

import (
	"context"
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/sweep"
)

// Table1 renders the system parameters (the paper's Table 1) from the
// active configuration. It runs no simulations, but the config
// validation and row construction still execute as a (single-job)
// sweep so every experiment shares the same substrate: cancellation,
// error accounting, and an execution Summary on the artifact.
func Table1(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	jobs := []sweep.Job[[][]string]{{
		Key: NameTable1,
		Run: func(context.Context) ([][]string, error) { return table1Rows(o) },
	}}
	res, err := sweep.Run(ctx, jobs, sweep.Options[[][]string]{
		Parallelism: o.Parallelism,
		OnProgress:  o.Progress,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return &Table{
		Title:   "Table 1: System parameters",
		Columns: []string{"Parameter", "Value"},
		Rows:    res.Jobs[0].Value,
		Summary: &res.Summary,
	}, nil
}

func table1Rows(o Options) ([][]string, error) {
	c := o.Config
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rows := [][]string{
		{"Instruction issue", fmt.Sprintf("%d, out-of-order", c.Pipeline.IssueWidth)},
		{"Fetch", fmt.Sprintf("%d-wide, %d threads/cycle (ICOUNT)", c.Pipeline.FetchWidth, c.Pipeline.FetchThreads)},
		{"L1", fmt.Sprintf("%dKB %d-way i & d, %d-cycle", c.Memory.L1I.SizeBytes>>10, c.Memory.L1I.Assoc, c.Memory.L1I.LatencyCycles)},
		{"L2", fmt.Sprintf("%dM %d-way shared, %d-cycle", c.Memory.L2.SizeBytes>>20, c.Memory.L2.Assoc, c.Memory.L2.LatencyCycles)},
		{"RUU/LSQ", fmt.Sprintf("%d/%d entries", c.Pipeline.RUUSize, c.Pipeline.LSQSize)},
		{"Memory ports", fmt.Sprintf("%d", c.Pipeline.MemPorts)},
		{"Off-chip memory latency", fmt.Sprintf("%d cycles", c.Memory.MemLatency)},
		{"SMT", fmt.Sprintf("%d contexts", c.Pipeline.Contexts)},
		{"Branch predictor", fmt.Sprintf("%s, %d-entry tables", c.Bpred.Kind, 1<<c.Bpred.TableBits)},
		{"Vdd", fmt.Sprintf("%.1f V", c.Power.Vdd)},
		{"Base frequency", fmt.Sprintf("%.0f GHz", c.Power.FrequencyHz/1e9)},
		{"Convection resistance", fmt.Sprintf("%.1f K/W", c.Thermal.ConvectionRes)},
		{"Heat-sink thickness", fmt.Sprintf("%.1f mm", c.Thermal.HeatSinkThicknessM*1e3)},
		{"Thermal RC cooling time", fmt.Sprintf("%.0f ms", c.Thermal.CoolingTimeMs)},
		{"Emergency temperature", fmt.Sprintf("%.1f K", c.Thermal.EmergencyK)},
		{"Sedation thresholds", fmt.Sprintf("upper %.1f K / lower %.1f K", c.Sedation.UpperK, c.Sedation.LowerK)},
		{"Access-rate sampling", fmt.Sprintf("every %d cycles, x = 1/%d", c.Sedation.SampleIntervalCycles, 1<<c.Sedation.EWMAShift)},
		{"Thermal scale (repro)", fmt.Sprintf("%.0fx", c.Thermal.Scale)},
		{"OS quantum", fmt.Sprintf("%d cycles", o.Quantum)},
	}
	return rows, nil
}
