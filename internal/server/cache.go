package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// record is the on-disk form of a job: one JSON file per content
// address under CacheDir. Completed records are reloaded as cache
// entries at startup; partial records (canceled/failed) are written
// for inspection but never served as results — their content address
// is recomputed and re-run on the next identical request.
type record struct {
	ID       string         `json:"id"`
	Version  string         `json:"version"`
	Request  api.JobRequest `json:"request"`
	Status   api.Status     `json:"status"`
	Progress api.Progress   `json:"progress"`
	Table    *sweep.Table   `json:"table,omitempty"`
	Summary  *sweep.Summary `json:"summary,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// persist writes a job's terminal record to the cache directory
// (write-to-temp + rename, so readers never see a torn file), stamped
// with the server's code version. Without a cache directory it is a
// no-op.
func (s *Server) persist(rec record) {
	if s.opts.CacheDir == "" {
		return
	}
	rec.Version = s.opts.Version
	if err := os.MkdirAll(s.opts.CacheDir, 0o755); err != nil {
		s.log.Info("cache error", "err", err)
		return
	}
	path := filepath.Join(s.opts.CacheDir, rec.ID+".json")
	tmp := path + ".tmp"
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		s.log.Info("cache encode failed", "job", shortID(rec.ID), "err", err)
		return
	}
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		s.log.Info("cache write failed", "err", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.log.Info("cache rename failed", "err", err)
	}
}

// loadCache repopulates the in-memory cache from the cache directory:
// every completed record becomes a served entry, so a restarted daemon
// answers repeat requests without re-simulating. Records written by a
// different code version are skipped (their content address embeds the
// old version, so they could never be requested again anyway).
func (s *Server) loadCache() error {
	if s.opts.CacheDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.opts.CacheDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: cache dir: %w", err)
	}
	loaded := 0
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		path := filepath.Join(s.opts.CacheDir, de.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			s.log.Info("cache read failed", "file", de.Name(), "err", err)
			continue
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			s.log.Info("cache decode failed", "file", de.Name(), "err", err)
			continue
		}
		if rec.Status != api.StatusDone || rec.Table == nil || rec.ID == "" {
			continue
		}
		if rec.Version != s.opts.Version {
			continue
		}
		e := newJobEntry(rec.ID, rec.Request, s.met)
		e.status = api.StatusDone
		e.prog = rec.Progress
		e.table = rec.Table
		e.subs = nil
		close(e.done)
		s.jobs[rec.ID] = e
		loaded++
	}
	if loaded > 0 {
		s.log.Info("cache loaded", "results", loaded, "dir", s.opts.CacheDir)
	}
	return nil
}
