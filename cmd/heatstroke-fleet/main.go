// Command heatstroke-fleet is the fleet coordinator: one HTTP front
// end over N heatstroked workers. Jobs are consistent-hashed onto
// workers by their content address, warm records are shipped to
// whichever worker a key lands on, failed dispatches retry on the
// next replica, and stragglers are hedged onto a second replica (the
// first byte-identical result wins and the loser is cancelled).
//
// Usage:
//
//	heatstroke-fleet -worker http://h1:8080 -worker http://h2:8080
//	heatstroke-fleet -addr :7070 -hedge-after 15s -fleet-token secret
//
// The coordinator serves a single daemon's job API, from the same job
// record and handlers (so heatstroke -server and pkg/client work
// against it unchanged), except DELETE /v1/jobs/{id}: a client cannot
// cancel a fleet job. On top it serves worker membership and
// fleet-wide metrics:
//
//	POST   /v1/jobs               submit; sharded, retried, hedged
//	GET    /v1/jobs/{id}          status (survives worker death)
//	GET    /v1/jobs/{id}/artifact rendered table from the winning replica
//	GET    /v1/jobs/{id}/events   SSE progress proxied across retries
//	GET    /v1/experiments        experiment registry listing
//	GET    /v1/traces/{id}        distributed trace stitched across workers
//	GET    /v1/workers            membership + per-worker health/stats
//	POST   /v1/workers            join {"url": "http://worker:8080"}
//	DELETE /v1/workers?url=...    leave
//	GET    /v1/stats              FleetStats (fleet counters + workers)
//	GET    /metrics               merged exposition, worker="..." labels
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/fleet"
	"github.com/heatstroke-sim/heatstroke/internal/server"
)

// stringList collects repeated -worker flags.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroke-fleet: ")
	if err := run(os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run is the coordinator lifecycle, factored out of main so tests can
// drive it in-process. ready, when non-nil, receives the bound
// address once the listener is up.
func run(args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("heatstroke-fleet", flag.ExitOnError)
	addr := fs.String("addr", ":7070", "listen address")
	var workers stringList
	fs.Var(&workers, "worker", "worker base URL (repeatable); more can join at runtime via POST /v1/workers")
	hedgeAfter := fs.Duration("hedge-after", 30*time.Second, "duplicate a still-running job onto a second replica after this long (0 = never hedge)")
	pollInterval := fs.Duration("poll-interval", 2*time.Second, "worker health/stats poll cadence")
	fleetToken := fs.String("fleet-token", "", "bearer token sent to workers (must match their -fleet-token)")
	scale := fs.Float64("scale", 0, "base thermal scale factor (default: config's; must match the workers')")
	quantum := fs.Int64("quantum", 0, "base cycles per OS quantum (default: config's; must match the workers')")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "shutdown drain deadline")
	logJSON := fs.Bool("log-json", false, "emit structured JSON logs instead of text")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	traceBuf := fs.Int("trace-buf", 0, "span capacity of the trace flight-recorder ring buffer (0 = default 8192, negative = disable tracing)")
	traceDir := fs.String("trace-dir", "", "flight-recorder mode: write each terminal job's stitched trace to this directory as {trace-id}.ndjson")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := server.NewLogger(*logJSON, *logLevel)
	if err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("-trace-dir: %w", err)
		}
	}
	coord, err := fleet.New(fleet.Options{
		Workers:       workers,
		HedgeAfter:    *hedgeAfter,
		PollInterval:  *pollInterval,
		FleetToken:    *fleetToken,
		BaseConfig:    server.BaseConfig(*scale, *quantum),
		Logger:        logger,
		TraceCapacity: *traceBuf,
		TraceDir:      *traceDir,
	})
	if err != nil {
		return err
	}
	log.Printf("coordinating %d workers", len(workers))
	return server.ServeUntilSignal(*addr, coord.Handler(), *drainTimeout, ready, coord.Shutdown)
}
