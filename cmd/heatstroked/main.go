// Command heatstroked is the experiment-serving daemon: a long-lived
// HTTP service that runs the paper's experiments on demand and serves
// repeated requests from a content-addressed result cache.
//
// Usage:
//
//	heatstroked                                  # serve on :8080
//	heatstroked -addr :9090 -cache-dir /var/cache/heatstroke
//	heatstroked -max-concurrent 4 -max-queue 64 -job-timeout 10m
//
// API (see pkg/api and pkg/client):
//
//	POST /v1/jobs                submit {"experiment": "fig5", ...}
//	GET  /v1/jobs/{id}           status + execution summary
//	GET  /v1/jobs/{id}/artifact  rendered table (?format=table|json|csv)
//	GET  /v1/jobs/{id}/events    SSE progress stream
//	GET  /v1/experiments         registry listing
//	GET  /v1/traces/{id}         spans of one trace (trace id or job id)
//	GET  /v1/stats               serving counters
//	GET  /metrics                Prometheus text-format exposition
//	GET  /healthz, /readyz       probes
//
// Identical requests share one simulation: concurrent duplicates
// coalesce onto the in-flight run, and completed results are cached
// (persistently with -cache-dir, so restarts don't re-simulate).
// SIGINT/SIGTERM drain gracefully: in-flight sweeps are cancelled,
// running simulations finish, and partial summaries are persisted.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatstroked: ")
	if err := run(os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon lifecycle, factored out of main so tests can drive
// it in-process. ready, when non-nil, receives the bound address once
// the listener is up. It returns nil on a clean signal-driven drain.
func run(args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("heatstroked", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheDir := fs.String("cache-dir", "", "persist completed results to this directory")
	warmupCacheDir := fs.String("warmup-cache-dir", "", "persist warm records to this directory (skips warmup for repeated cores and dies)")
	advertise := fs.String("advertise", "", "address fleet peers should reach this daemon at (reported in /v1/stats)")
	fleetToken := fs.String("fleet-token", "", "bearer token gating the /v1/warm record-transfer endpoints (empty = open)")
	maxConcurrent := fs.Int("max-concurrent", 2, "maximum sweeps running at once")
	maxQueue := fs.Int("max-queue", 16, "maximum queued jobs before 429 backpressure")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job deadline (0 = none)")
	parallel := fs.Int("parallel", 0, "per-sweep worker bound (default: GOMAXPROCS)")
	scale := fs.Float64("scale", 0, "base thermal scale factor (default: config's)")
	quantum := fs.Int64("quantum", 0, "base cycles per OS quantum (default: config's)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "shutdown drain deadline")
	logJSON := fs.Bool("log-json", false, "emit structured JSON logs instead of text")
	logLevel := fs.String("log-level", "info", "log level: debug (includes per-request lines), info, warn, error")
	traceBuf := fs.Int("trace-buf", 0, "span capacity of the trace flight-recorder ring buffer (0 = default 8192, negative = disable tracing)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := server.NewLogger(*logJSON, *logLevel)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Options{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		JobTimeout:     *jobTimeout,
		Parallelism:    *parallel,
		CacheDir:       *cacheDir,
		WarmupCacheDir: *warmupCacheDir,
		Advertise:      *advertise,
		FleetToken:     *fleetToken,
		BaseConfig:     server.BaseConfig(*scale, *quantum),
		Logger:         logger,
		TraceCapacity:  *traceBuf,
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		// The profiling mux is opt-in and on its own listener, so the
		// public API surface never exposes pprof.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		log.Printf("pprof listening on %s", debugLn.Addr())
		go func() {
			if err := http.Serve(debugLn, debugMux); err != nil {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}
	return server.ServeUntilSignal(*addr, srv.Handler(), *drainTimeout, ready, srv.Shutdown)
}
