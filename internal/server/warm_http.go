package server

import (
	"crypto/subtle"
	"net/http"

	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

// Warm-record transfer: the fleet coordinator keeps warm-reuse hit
// rates alive across resharding by copying warm records (one core's or
// one die's post-warmup state) between workers — GET /v1/warm/{key}
// reads one out of this daemon's warm cache, PUT /v1/warm/{key}
// installs one into it. The payload is exactly the sim.WriteWarm
// on-disk form (magic header + versioned gob), so a .warm file, a GET
// body, and a PUT body are interchangeable; PUT decodes before
// installing, so a torn, stale-format or malformed upload is rejected
// instead of poisoning the cache. Both endpoints require the warm
// cache (-warmup-cache-dir) and, when Options.FleetToken is set, a
// matching bearer token.

// fleetAuthorized checks the shared-token gate on the transfer
// endpoints. An empty configured token leaves them open.
func (s *Server) fleetAuthorized(r *http.Request) bool {
	if s.opts.FleetToken == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.opts.FleetToken
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// validWarmKey gates the path parameter: warm keys are lowercase
// sha256 hex digests, and since they double as cache filenames nothing
// else may reach the store.
func validWarmKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) warmTransferOK(w http.ResponseWriter, r *http.Request) (string, bool) {
	if !s.fleetAuthorized(r) {
		WriteError(w, http.StatusUnauthorized, "missing or wrong fleet token")
		return "", false
	}
	if s.warm == nil {
		WriteError(w, http.StatusNotFound, "warmup cache disabled (run with -warmup-cache-dir)")
		return "", false
	}
	key := r.PathValue("key")
	if !validWarmKey(key) {
		WriteError(w, http.StatusBadRequest, "warm key must be a sha256 hex digest")
		return "", false
	}
	return key, true
}

func (s *Server) handleWarmGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.warmTransferOK(w, r)
	if !ok {
		return
	}
	rec, ok := s.warm.Get(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "no warm record for key")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := sim.WriteWarm(w, rec); err != nil {
		// Headers are gone; all we can do is log and drop the
		// connection mid-body so the peer sees a truncated gob (which
		// its decode rejects).
		s.log.Info("warm record send failed", "key", ShortID(key), "err", err)
	}
	s.met.warmServed.Inc()
}

func (s *Server) handleWarmPut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.warmTransferOK(w, r)
	if !ok {
		return
	}
	// Decode (and thereby validate) before installing: ReadWarm checks
	// the magic header, the format version and the record's shape, so
	// a corrupt or incompatible upload is a 400, never a cache entry.
	rec, err := sim.ReadWarm(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad warm record payload: %v", err)
		return
	}
	s.warm.Put(key, rec)
	s.met.warmInstalled.Inc()
	s.log.Info("warm record installed", "key", ShortID(key))
	w.WriteHeader(http.StatusNoContent)
}
