package experiment

import (
	"context"
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
)

// forkTree arranges an experiment's jobs as a fork tree: jobs sharing a
// warm identity become leaves under one prefix node whose Prefix
// assembles the shared warm state once and hands it to every leaf
// (restores copy, never alias, so concurrent leaves never interfere).
// Jobs with no warmup become leaf roots. Grouping follows first
// appearance in input order, so the tree's DFS leaf order — and with
// it result indexing — is the input order of the flat sweep.
//
// The rendered tables are byte-identical to runSweep's flat and cold
// paths (enforced by the differential equivalence suite); only the
// Summary's fork counters and timing fields differ.
func forkTree(jobs []job, o Options) []*sweep.ForkNode[*sim.Result] {
	var roots []*sweep.ForkNode[*sim.Result]
	groups := make(map[string]*sweep.ForkNode[*sim.Result])
	for _, j := range jobs {
		leaf := sweep.LeafNode(j.key, func(ctx context.Context, parent any) (*sim.Result, error) {
			if parent == nil {
				return runCold(ctx, j)
			}
			return runFromWarm(ctx, o, j, parent)
		})
		if j.opts.WarmupCycles <= 0 {
			roots = append(roots, leaf)
			continue
		}
		k := keysOf(o, j)
		key := k.job()
		p, ok := groups[key]
		if !ok {
			p = sweep.PrefixNode[*sim.Result](
				fmt.Sprintf("warm:%s:%s", j.key, key[:12]),
				func(ctx context.Context, _ any) (any, error) {
					return buildWarm(ctx, o, j, k)
				},
			)
			groups[key] = p
			roots = append(roots, p)
		}
		p.Children = append(p.Children, leaf)
	}
	return roots
}
