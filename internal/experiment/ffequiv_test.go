package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// TestFastForwardEquivalence locks in the tentpole invariant end to
// end: the stalled-cycle fast-forward must be invisible in every
// measured quantity. A Figure-5-style attack pair (SPEC program vs
// malicious variant 2) runs under each DTM policy twice — once
// stepping every cycle, once fast-forwarding — and the full sim.Result
// structs, samples included, must be deeply equal. The same pair
// split across a 2-core grid die, as neighbor-heat places it, must be
// too, under each per-core policy and the chip scope.
func TestFastForwardEquivalence(t *testing.T) {
	for _, policy := range []dtm.Kind{dtm.StopAndGo, dtm.SelectiveSedation, dtm.DVS, dtm.ChipRoundRobin} {
		t.Run(string(policy), func(t *testing.T) {
			o := tinyOptions().normalized()
			spec, err := specThread("crafty", o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			vt, err := variantThread(2, o.Config.Thermal.Scale)
			if err != nil {
				t.Fatal(err)
			}
			// The pair on one core, and split across a 2-core die; the
			// chip scope runs on the die only.
			scope := dtm.ScopePerCore
			var jobs []job
			if policy == dtm.ChipRoundRobin {
				scope = dtm.ScopeChip
			} else {
				jobs = append(jobs, pairJob(o, "1-core", spec, vt, policy, false))
			}
			jobs = append(jobs, dieJob(o, "2-core", [][]sim.Thread{{vt}, {spec}}, scope, policy))
			for _, j := range jobs {
				run := func(fastForward bool) *sim.Result {
					opts := j.opts
					opts.CollectSamples, opts.DisableFastForward = true, !fastForward
					s, err := sim.NewMulti(j.cfg, j.cores, opts)
					if err != nil {
						t.Fatal(err)
					}
					r, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				stepped := run(false)
				skipped := run(true)
				if !reflect.DeepEqual(stepped, skipped) {
					t.Errorf("%s: results diverge:\n--- stepped\n%s\n--- fast-forwarded\n%s",
						j.key, resultSummary(stepped), resultSummary(skipped))
				}
			}
		})
	}
}

// resultSummary flattens the fields most likely to diverge for a
// readable failure message.
func resultSummary(r *sim.Result) string {
	s := fmt.Sprintf("cycles=%d emergencies=%d stopgo=%d peak=%.4f power=%.4f sedation=%+v",
		r.Cycles, r.Emergencies, r.StopGoCycles, r.PeakTemp, r.TotalPowerW, r.Sedation)
	for i, tr := range r.Threads {
		s += fmt.Sprintf("\n  thread %d: %+v", i, tr)
	}
	return s
}
