// Attack anatomy: build the paper's malicious code from its assembly
// listing, run it against a victim with only the stop-and-go base case,
// and trace the register file's temperature through the heat-stroke
// cycle — fast heating to the 358.5 K emergency, a long forced cooling
// stall, repeat.
package main

import (
	"fmt"
	"log"
	"strings"

	heatstroke "github.com/heatstroke-sim/heatstroke"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
)

func main() {
	log.SetFlags(0)
	cfg := heatstroke.DefaultConfig()
	cfg.Run.QuantumCycles = 12_000_000

	// The Figure 1 attacker, straight from its assembly. Renaming makes
	// the repeated adds independent, so they issue at the ALU limit and
	// hammer the integer register file.
	var sb strings.Builder
	sb.WriteString("L$1:\n")
	for i := 0; i < 48; i++ {
		sb.WriteString("\taddl $1, $2, $3\n")
	}
	sb.WriteString("\tbr L$1\n")
	attacker, err := heatstroke.Assemble("variant1", sb.String())
	if err != nil {
		log.Fatal(err)
	}

	victim, err := heatstroke.SpecProgram("gcc", 1)
	if err != nil {
		log.Fatal(err)
	}

	s, err := heatstroke.NewSimulator(cfg,
		[]heatstroke.Thread{
			{Name: "gcc", Prog: victim},
			{Name: "variant1", Prog: attacker},
		},
		heatstroke.Options{
			Policy:         heatstroke.PolicyStopAndGo,
			WarmupCycles:   500_000,
			CollectSamples: true,
		})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Register-file temperature during the attack (one column per 400k cycles):")
	fmt.Println()
	printTrace(res.Samples, cfg.Thermal.EmergencyK)
	fmt.Println()
	fmt.Printf("emergencies: %d    pipeline stalled for cooling: %.1f%% of the quantum\n",
		res.Emergencies, 100*float64(res.StopGoCycles)/float64(res.Cycles))
	fmt.Printf("victim (gcc) IPC: %.2f    attacker IPC: %.2f\n",
		res.Threads[0].IPC, res.Threads[1].IPC)
	n, c, _ := res.Threads[0].Breakdown.Fractions()
	fmt.Printf("victim time: %.0f%% running, %.0f%% frozen by the attacker's hot spot\n", n*100, c*100)
}

// printTrace renders an ASCII strip chart of the register file's
// temperature in the series.
func printTrace(series []trace.Sample, emergency float64) {
	if len(series) == 0 {
		return
	}
	// Downsample to at most 72 columns.
	step := len(series)/72 + 1
	var samples []float64
	for i := 0; i < len(series); i += step {
		samples = append(samples, series[i].UnitTempK[power.UnitIntReg])
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 1 {
		hi = lo + 1
	}
	const rows = 10
	for r := rows; r >= 0; r-- {
		level := lo + (hi-lo)*float64(r)/rows
		mark := "      "
		if level <= emergency && emergency < level+(hi-lo)/rows {
			mark = "EMERG>"
		}
		fmt.Printf("%s %6.1fK |", mark, level)
		for _, v := range samples {
			if v >= level {
				fmt.Print("#")
			} else {
				fmt.Print(" ")
			}
		}
		fmt.Println()
	}
}
