package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
)

// discardHandler drops every record (log/slog gained its own discard
// handler only in Go 1.24).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// DiscardLogger returns a logger that drops every record: the log sink
// of a daemon or coordinator built without a Logger.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// NewLogger builds the stderr logger of a daemon or coordinator process
// from its -log-json and -log-level flags.
func NewLogger(jsonFormat bool, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// BaseConfig returns the base configuration of a daemon or coordinator
// process: config.Default with its -scale and -quantum flags applied
// when positive. Workers and their coordinator must build it from the
// same flags for their content addresses to alias.
func BaseConfig(scale float64, quantum int64) func() config.Config {
	return func() config.Config {
		cfg := config.Default()
		if scale > 0 {
			cfg.Thermal.Scale = scale
		}
		if quantum > 0 {
			cfg.Run.QuantumCycles = quantum
		}
		return cfg
	}
}

// ServeUntilSignal serves h on addr until the process gets SIGINT or
// SIGTERM, then drains within drainTimeout: the HTTP server stops
// accepting connections first, then shutdown (the front end's own
// Shutdown) cancels and waits for its in-flight work. ready, when
// non-nil, receives the bound address once the listener is up. It
// returns nil on a clean signal-driven drain.
func ServeUntilSignal(addr string, h http.Handler, drainTimeout time.Duration, ready func(addr string), shutdown func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Handler: h}
	log.Printf("listening on %s", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	log.Printf("signal received, draining (timeout %s)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := shutdown(drainCtx); err != nil {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}

// statusRecorder captures the response code for request logging while
// passing Flush through so SSE streaming keeps working.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests wraps the mux with structured per-request logging at
// Debug level (job lifecycle lines are logged at Info separately, so
// the default level keeps operational noise down).
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.log.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur", time.Since(start).Round(time.Microsecond).String(),
			"remote", r.RemoteAddr)
	})
}
