package server

import (
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// warmSuffix names the warm record files under WarmupCacheDir.
const warmSuffix = ".warm"

// warmStore is the daemon's warm cache: an experiment.WarmStore backed
// by one {key}.warm record file per warm key under WarmupCacheDir, with
// an in-memory layer in front so only the first job after a restart
// pays the disk read. Warm keys are hex digests, so they are safe
// filenames; files are written via sim.WriteWarmFile (temp + rename),
// so readers never see a torn record. Memory use grows with the number
// of distinct warm keys the process touches: one compact core state or
// die state per distinct core or die.
type warmStore struct {
	dir string
	log *slog.Logger
	met *serverMetrics

	mu  sync.Mutex
	mem map[string]*sim.WarmRecord
}

func newWarmStore(dir string, log *slog.Logger, met *serverMetrics) *warmStore {
	return &warmStore{dir: dir, log: log, met: met, mem: make(map[string]*sim.WarmRecord)}
}

func (ws *warmStore) path(key string) string {
	return filepath.Join(ws.dir, key+warmSuffix)
}

// Get implements experiment.WarmStore. A hit from memory or disk
// counts once; records that fail to decode (torn, stale format) are
// misses — the caller re-runs the warmup and overwrites them.
func (ws *warmStore) Get(key string) (*sim.WarmRecord, bool) {
	ws.mu.Lock()
	rec, ok := ws.mem[key]
	ws.mu.Unlock()
	if ok {
		ws.met.warmHits.Inc()
		return rec, true
	}
	rec, err := sim.ReadWarmFile(ws.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			ws.log.Info("warmup cache read failed", "key", ShortID(key), "err", err)
		}
		ws.met.warmMisses.Inc()
		return nil, false
	}
	ws.mu.Lock()
	ws.mem[key] = rec
	ws.mu.Unlock()
	ws.met.warmHits.Inc()
	return rec, true
}

// Keys lists every warm key the store can serve, memory and disk
// union, sorted. This is what /v1/stats advertises to the fleet
// coordinator, so it is the discovery side of snapshot shipping.
func (ws *warmStore) Keys() []string {
	seen := make(map[string]bool)
	ws.mu.Lock()
	for k := range ws.mem {
		seen[k] = true
	}
	ws.mu.Unlock()
	if entries, err := os.ReadDir(ws.dir); err == nil {
		for _, de := range entries {
			name := de.Name()
			if de.IsDir() || !strings.HasSuffix(name, warmSuffix) {
				continue
			}
			seen[strings.TrimSuffix(name, warmSuffix)] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Put implements experiment.WarmStore. Disk failures only log — the
// in-memory layer still serves the record for this process's lifetime.
func (ws *warmStore) Put(key string, rec *sim.WarmRecord) {
	ws.mu.Lock()
	ws.mem[key] = rec
	ws.mu.Unlock()
	if err := os.MkdirAll(ws.dir, 0o755); err != nil {
		ws.log.Info("warmup cache dir failed", "err", err)
		return
	}
	if err := sim.WriteWarmFile(ws.path(key), rec); err != nil {
		ws.log.Info("warmup cache write failed", "key", ShortID(key), "err", err)
	}
}
