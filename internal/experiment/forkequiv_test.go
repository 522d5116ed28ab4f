package experiment

import (
	"context"
	"fmt"
	"testing"
)

// forkEquivOptions keeps the differential runs fast: two benchmarks,
// short quanta, explicit quantum so ablations don't raise it.
func forkEquivOptions(benches ...string) Options {
	o := tinyOptions()
	o.Quantum = 300_000
	if len(benches) > 0 {
		o.Benchmarks = benches
	}
	return o
}

// TestForkTreeEquivalence is the differential equivalence suite: for
// each experiment rewired through the fork tree, the fork-tree table
// must be byte-for-byte identical to the cold per-variant run it
// replaces. The policies experiment covers all five DTM kinds; the
// fast-forward switch is exercised on both settings for the threshold
// and policy sweeps, so equivalence is proven on both simulator code
// paths. Both multi-core experiments fork their dies too. Gated in CI
// by the standard test job.
func TestForkTreeEquivalence(t *testing.T) {
	cases := []struct {
		experiment string
		opts       Options
		noFF       []bool
		// unshared marks an experiment whose jobs all differ in warm
		// identity: neighbor-heat's two dies differ in core 0's
		// program, so each is its own prefix (they share the victim
		// core and the die through the warm store instead).
		unshared bool
	}{
		{NameThresholds, forkEquivOptions(), []bool{false, true}, false},
		{NamePolicies, forkEquivOptions(), []bool{false, true}, false},
		{NameThresholdsDense, forkEquivOptions("crafty"), []bool{false}, false},
		{NameFlatAvg, forkEquivOptions(), []bool{false}, false},
		{NameAbsThresh, forkEquivOptions(), []bool{false}, false},
		{NameNeighborHeat, forkEquivOptions("crafty"), []bool{false}, true},
		{NameDTMScope, forkEquivOptions("crafty"), []bool{false}, false},
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

				fork := o
				fork.ForkTree = true
				forkTb, err := RunContext(context.Background(), tc.experiment, fork)
				if err != nil {
					t.Fatal(err)
				}

				if coldTb.String() != forkTb.String() {
					t.Errorf("fork-tree table differs from cold run:\n--- cold\n%s\n--- fork\n%s",
						coldTb.String(), forkTb.String())
				}
				sum := forkTb.Summary
				switch {
				case tc.unshared:
					if sum.ForkPrefixes != sum.Jobs {
						t.Errorf("fork tree ran %d prefixes for %d jobs of distinct warm identities",
							sum.ForkPrefixes, sum.Jobs)
					}
				case sum.ForkPrefixes == 0 || sum.ForkReused == 0:
					t.Errorf("fork tree shared nothing: %d prefixes, %d reused",
						sum.ForkPrefixes, sum.ForkReused)
				case sum.ForkPrefixes >= sum.Jobs:
					t.Errorf("fork tree ran %d prefixes for %d jobs — no sharing",
						sum.ForkPrefixes, sum.Jobs)
				}
				if coldTb.Summary.ForkPrefixes != 0 || coldTb.Summary.WarmupRuns != 0 {
					t.Errorf("cold run reported sharing: %+v", coldTb.Summary)
				}
			})
		}
	}
}

// TestForkTreeSharesAcrossThresholds pins the WarmDigest relaxation's
// payoff: the dense threshold grid's 14 variants of one benchmark fork
// from a single warm prefix instead of warming 14 times.
func TestForkTreeSharesAcrossThresholds(t *testing.T) {
	o := forkEquivOptions("crafty")
	o.ForkTree = true
	tb, err := RunContext(context.Background(), NameThresholdsDense, o)
	if err != nil {
		t.Fatal(err)
	}
	// 15 jobs (1 solo + 14 threshold pairs), 2 prefixes (solo has one
	// thread, the pairs share one two-thread warm state).
	if tb.Summary.Jobs != 15 {
		t.Fatalf("jobs = %d, want 15", tb.Summary.Jobs)
	}
	if tb.Summary.ForkPrefixes != 2 {
		t.Errorf("ForkPrefixes = %d, want 2 (one per thread set, not one per grid point)", tb.Summary.ForkPrefixes)
	}
	if tb.Summary.ForkReused != 13 {
		t.Errorf("ForkReused = %d, want 13", tb.Summary.ForkReused)
	}
}
