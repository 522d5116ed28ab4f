// Command heatstroke-calibrate probes the simulator's operating points:
// it runs benchmarks and attack variants solo and paired, printing IPC,
// integer-register-file access rates, peak temperatures, and emergency
// counts. Use it to check the power/thermal calibration targets
// documented in package power before trusting experiment output.
//
// Runs execute through the internal/sweep engine: -parallel bounds
// concurrent simulations, Ctrl-C lets running probes finish and skips
// pending ones, and output is always printed in probe order regardless
// of completion order.
//
// Usage:
//
//	heatstroke-calibrate [-cycles N] [-scale S] [-bench list] [-pairs] [-parallel N] [-timeout D]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroke-calibrate: ")
	cycles := flag.Int64("cycles", 4_000_000, "cycles per run")
	scale := flag.Float64("scale", 16, "thermal scale factor")
	benches := flag.String("bench", "crafty,mcf,gcc,applu", "comma-separated benchmarks")
	pairs := flag.Bool("pairs", false, "also run benchmark+variant pairs")
	pairVariant := flag.Int("variant", 2, "malicious variant used by -pairs")
	policy := flag.String("policy", "stopgo", "DTM policy: none|stopgo|dvs|sedation")
	warmup := flag.Int64("warmup", 500_000, "warmup cycles before measurement")
	noFlaky := flag.Bool("noflaky", false, "zero FlakyFrac in profiles (diagnostic)")
	noMem := flag.Bool("nomem", false, "zero warm/cold memory fractions (diagnostic)")
	ambient := flag.Float64("ambient", 0, "override ambient temperature (K)")
	spsink := flag.Float64("spsink", 0, "override spreader-to-sink K factor")
	diecap := flag.Float64("diecap", 0, "override die capacitance factor")
	spcap := flag.Float64("spcap", 0, "override spreader capacitance factor")
	escale := flag.Float64("escale", 0, "override the global per-access energy scale")
	specPairs := flag.Bool("specpairs", false, "run SPEC+SPEC pairs (first benchmark with each other)")
	parallel := flag.Int("parallel", 1, "concurrent probe simulations")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	flag.Parse()

	cfg := config.Default()
	cfg.Thermal.Scale = *scale
	cfg.Run.QuantumCycles = *cycles
	if *ambient > 0 {
		cfg.Thermal.AmbientK = *ambient
	}
	if *spsink > 0 {
		cfg.Thermal.SpreadToSinkK = *spsink
	}
	if *diecap > 0 {
		cfg.Thermal.DieCapFactor = *diecap
	}
	if *spcap > 0 {
		cfg.Thermal.SpreaderCapFactor = *spcap
	}
	if *escale > 0 {
		cfg.Power.EnergyScale = *escale
	}

	mkVariant := func(n int) *isa.Program {
		p, err := workload.Variant(n)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	mkSpec := func(n string) *isa.Program {
		p, err := workload.SpecProfile(n)
		if err != nil {
			log.Fatal(err)
		}
		if *noFlaky {
			p.FlakyFrac = 0
		}
		if *noMem {
			p.WarmFrac, p.ColdFrac = 0, 0
		}
		prog, _, err := workload.Generate(p, cfg.Run.Seed)
		if err != nil {
			log.Fatal(err)
		}
		return prog
	}

	// probe runs one simulation and formats its report; the sweep engine
	// may execute probes concurrently, but output stays in probe order.
	probe := func(label string, threads []sim.Thread) func(context.Context) (string, error) {
		return func(context.Context) (string, error) {
			s, err := sim.New(cfg, threads, sim.Options{Policy: dtm.Kind(*policy), WarmupCycles: *warmup})
			if err != nil {
				return "", err
			}
			res, err := s.Run()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for i, tr := range res.Threads {
				iq := float64(s.Core().Activity().Thread(i, power.UnitIntQ)) / float64(res.Cycles)
				peak := ""
				emerg := ""
				stop := ""
				pw := ""
				if i == 0 {
					peak = fmt.Sprintf("%8.2f", res.PeakTemp)
					emerg = fmt.Sprintf("%6d", res.Emergencies)
					stop = fmt.Sprintf("%7.1f%%", 100*float64(res.StopGoCycles)/float64(res.Cycles))
					pw = fmt.Sprintf("%8.1f", res.TotalPowerW)
				}
				mp := 0.0
				if tr.Mispredicts > 0 {
					st := s.Core().Stats(i)
					if st.Branches > 0 {
						mp = 100 * float64(st.Mispredicts) / float64(st.Branches)
					}
				}
				fmt.Fprintf(&b, "%-22s %7.3f %7.2f %7.2f %s %8s %s %s %s mp%%=%.1f\n",
					label+"/"+tr.Name, tr.IPC, tr.IntRegRate, iq, peak, res.PeakUnit, emerg, stop, pw, mp)
			}
			fmt.Fprintf(&b, "%-22s final IntReg=%.2fK IntExec=%.2fK IntQ=%.2fK sink=%.2fK sedations=%d\n",
				label, res.FinalTemps[power.UnitIntReg], res.FinalTemps[power.UnitIntExec],
				res.FinalTemps[power.UnitIntQ], s.Solver().SinkTemp(), res.Sedation.Sedations)
			return b.String(), nil
		}
	}

	var jobs []sweep.Job[string]
	add := func(label string, threads []sim.Thread) {
		jobs = append(jobs, sweep.Job[string]{Key: label, Run: probe(label, threads)})
	}

	names := strings.Split(*benches, ",")
	for _, n := range names {
		n = strings.TrimSpace(n)
		add("solo/"+n, []sim.Thread{{Name: n, Prog: mkSpec(n)}})
	}
	for v := 1; v <= 3; v++ {
		add(fmt.Sprintf("solo/variant%d", v),
			[]sim.Thread{{Name: fmt.Sprintf("variant%d", v), Prog: mkVariant(v)}})
	}
	if *pairs {
		for _, n := range names {
			n = strings.TrimSpace(n)
			add("pair/"+n, []sim.Thread{
				{Name: n, Prog: mkSpec(n)},
				{Name: fmt.Sprintf("variant%d", *pairVariant), Prog: mkVariant(*pairVariant)},
			})
		}
	}
	if *specPairs {
		first := strings.TrimSpace(names[0])
		for _, n := range names[1:] {
			n = strings.TrimSpace(n)
			add("specpair/"+n, []sim.Thread{
				{Name: first, Prog: mkSpec(first)},
				{Name: n, Prog: mkSpec(n)},
			})
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fmt.Printf("%-22s %7s %7s %7s %8s %8s %6s %8s %8s\n",
		"workload", "IPC", "RF/cyc", "IQ/cyc", "peakK", "peakUnit", "emerg", "stopgo%", "powerW")

	res, err := sweep.Run(ctx, jobs, sweep.Options[string]{
		Parallelism: *parallel,
	})
	// Completed probes print in probe order even on error/cancellation.
	for _, j := range res.Jobs {
		if j.Err == nil && !j.Skipped {
			fmt.Print(j.Value)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}
