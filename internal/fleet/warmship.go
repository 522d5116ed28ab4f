package fleet

import (
	"context"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// warmKeysFor enumerates the warm-record keys (every job's cores and
// die) the resolved request will look up when it runs, without
// simulating anything (see experiment.WarmKeys). The coordinator
// resolves requests with the same version and base config as the
// workers and builds the experiment options with the same function
// they run with, so these keys alias the workers' warm caches exactly;
// with a mixed-version fleet they miss and shipping degrades to a
// no-op — slower warmups, never wrong results.
func (c *Coordinator) warmKeysFor(ctx context.Context, req api.JobRequest) []string {
	keys, err := experiment.WarmKeys(ctx, req.Experiment, server.ExperimentOptions(c.opts.Version, c.opts.BaseConfig, req))
	if err != nil {
		c.log.Info("warm key enumeration failed", "experiment", req.Experiment, "err", err)
		return nil
	}
	return keys
}

// shipWarm makes sure the target worker holds every warm record the
// job will want, before the job is submitted there, copying each
// missing one from another worker that advertises the key in its
// stats. Everything here is best-effort — a missing or unshippable
// record just means the target re-runs that part of the warmup itself
// (the warm store is a cache, not a dependency).
//
// This is what keeps warm hit rates intact across resharding: when a
// key's owner changes (worker join/leave), the first dispatch to the
// new owner carries the old owner's records with it.
func (c *Coordinator) shipWarm(ctx context.Context, target *worker, req api.JobRequest) {
	keys := c.warmKeysFor(ctx, req)
	for _, key := range keys {
		if target.hasWarm(key) {
			continue
		}
		data := c.findSnapshot(ctx, key, target)
		if data == nil {
			continue
		}
		putCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := target.cl.PutWarm(putCtx, key, data)
		cancel()
		if err != nil {
			c.log.Info("warm ship failed", "key", server.ShortID(key), "worker", target.label(), "err", err)
			continue
		}
		target.setWarm(key)
		c.met.warmShipped.Inc()
		c.log.Info("warm record shipped", "key", server.ShortID(key), "worker", target.label(), "bytes", len(data))
	}
}

// findSnapshot fetches a warm record in its wire form from a healthy
// worker other than exclude that advertises the key (GET
// /v1/warm/{key}), or returns nil when none can serve it.
func (c *Coordinator) findSnapshot(ctx context.Context, key string, exclude *worker) []byte {
	c.mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, w := range ws {
		if w == exclude || !w.isHealthy() || !w.hasWarm(key) {
			continue
		}
		getCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		data, err := w.cl.FetchWarm(getCtx, key)
		cancel()
		if err == nil {
			return data
		}
		c.log.Info("warm fetch failed", "key", server.ShortID(key), "worker", w.label(), "err", err)
	}
	return nil
}
