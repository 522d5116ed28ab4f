package experiment

import (
	"context"
	"errors"
)

// errEnumerated is runSweep's return when Options.enumerate intercepts
// the job list: the experiment aborts before simulating, and WarmKeys
// recognizes the sentinel as success.
var errEnumerated = errors.New("experiment: job list enumerated, sweep skipped")

// WarmKeys lists the keys of every warm record the named experiment
// would look up — each job's core keys, then its die key — without
// running any simulation. The keys are exactly those the run itself
// derives (same keysOf on the same built job list), deduplicated in
// first-appearance order, so a fleet coordinator can decide, before
// dispatching a job to a worker, which records to ship there (see
// internal/fleet). Options follow the same normalization as a real
// run; CodeVersion must match the executing side for the keys to alias
// its store.
//
// Cost: job construction only — workload/program generation and config
// digests, no cycles simulated. Experiments that run no simulations
// (table1) return no keys.
func WarmKeys(ctx context.Context, name string, o Options) ([]string, error) {
	var keys []string
	seen := make(map[string]bool)
	o.enumerate = func(eo Options, jobs []job) {
		for _, j := range jobs {
			if j.opts.WarmupCycles <= 0 {
				continue
			}
			k := keysOf(eo, j)
			for _, key := range append(k.cores, k.die) {
				if !seen[key] {
					seen[key] = true
					keys = append(keys, key)
				}
			}
		}
	}
	if _, err := RunContext(ctx, name, o); err != nil && !errors.Is(err, errEnumerated) {
		return nil, err
	}
	return keys, nil
}
