package experiment

import (
	"context"
	"fmt"
	"testing"
)

// warmEquivOptions keeps the differential runs fast: two benchmarks,
// short quanta, explicit quantum so ablations don't raise it.
func warmEquivOptions(benches ...string) Options {
	o := tinyOptions()
	o.Quantum = 300_000
	if len(benches) > 0 {
		o.Benchmarks = benches
	}
	return o
}

// TestWarmShareEquivalence is the differential equivalence suite: for
// each experiment whose variants share warm state, the warm-shared
// table must be byte-for-byte identical to the cold per-variant run it
// replaces. The policies experiment covers all five DTM kinds; the
// fast-forward switch is exercised on both settings for the threshold
// and policy sweeps, so equivalence is proven on both simulator code
// paths. Both multi-core experiments share their dies too. Gated in
// CI by the standard test job.
func TestWarmShareEquivalence(t *testing.T) {
	cases := []struct {
		experiment string
		opts       Options
		noFF       []bool
		// unshared marks an experiment whose jobs all differ in warm
		// identity: neighbor-heat's two dies differ in core 0's
		// program, so each job builds its own warm state (they share
		// the victim core and the die through the warm store instead).
		unshared bool
	}{
		{NameThresholds, warmEquivOptions(), []bool{false, true}, false},
		{NamePolicies, warmEquivOptions(), []bool{false, true}, false},
		{NameThresholdsDense, warmEquivOptions("crafty"), []bool{false}, false},
		{NameFlatAvg, warmEquivOptions(), []bool{false}, false},
		{NameAbsThresh, warmEquivOptions(), []bool{false}, false},
		{NameNeighborHeat, warmEquivOptions("crafty"), []bool{false}, true},
		{NameDTMScope, warmEquivOptions("crafty"), []bool{false}, false},
	}
	for _, tc := range cases {
		for _, noFF := range tc.noFF {
			tc, noFF := tc, noFF
			name := fmt.Sprintf("%s/ff=%v", tc.experiment, !noFF)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				o := tc.opts
				o.DisableFastForward = noFF

				cold := o
				cold.DisableWarmupReuse = true
				coldTb, err := RunContext(context.Background(), tc.experiment, cold)
				if err != nil {
					t.Fatal(err)
				}

				warmTb, err := RunContext(context.Background(), tc.experiment, o)
				if err != nil {
					t.Fatal(err)
				}

				if coldTb.String() != warmTb.String() {
					t.Errorf("warm-shared table differs from cold run:\n--- cold\n%s\n--- warm\n%s",
						coldTb.String(), warmTb.String())
				}
				sum := warmTb.Summary
				switch {
				case tc.unshared:
					if sum.WarmupRuns != sum.Jobs || sum.WarmupReused != 0 {
						t.Errorf("built %d warm states (%d reused) for %d jobs of distinct warm identities",
							sum.WarmupRuns, sum.WarmupReused, sum.Jobs)
					}
				case sum.WarmupRuns == 0 || sum.WarmupReused == 0:
					t.Errorf("warm sharing shared nothing: %d built, %d reused",
						sum.WarmupRuns, sum.WarmupReused)
				case sum.WarmupRuns >= sum.Jobs:
					t.Errorf("built %d warm states for %d jobs — no sharing",
						sum.WarmupRuns, sum.Jobs)
				}
				if coldTb.Summary.WarmupRuns != 0 || coldTb.Summary.WarmupReused != 0 {
					t.Errorf("cold run reported sharing: %+v", coldTb.Summary)
				}
			})
		}
	}
}

// TestWarmShareAcrossThresholds pins the WarmDigest relaxation's
// payoff: the dense threshold grid's 14 variants of one benchmark
// start from a single warm state instead of warming 14 times.
func TestWarmShareAcrossThresholds(t *testing.T) {
	tb, err := RunContext(context.Background(), NameThresholdsDense, warmEquivOptions("crafty"))
	if err != nil {
		t.Fatal(err)
	}
	// 15 jobs (1 solo + 14 threshold pairs), 2 warm states (solo has
	// one thread, the pairs share one two-thread warm state).
	if tb.Summary.Jobs != 15 {
		t.Fatalf("jobs = %d, want 15", tb.Summary.Jobs)
	}
	if tb.Summary.WarmupRuns != 2 {
		t.Errorf("WarmupRuns = %d, want 2 (one per thread set, not one per grid point)", tb.Summary.WarmupRuns)
	}
	if tb.Summary.WarmupReused != 13 {
		t.Errorf("WarmupReused = %d, want 13", tb.Summary.WarmupReused)
	}
}
