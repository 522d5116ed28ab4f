package client_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
	"github.com/heatstroke-sim/heatstroke/pkg/client"
)

func startDaemon(t *testing.T) *client.Client {
	t.Helper()
	s, err := server.New(server.Options{
		BaseConfig: func() config.Config {
			cfg := config.Default()
			cfg.Run.QuantumCycles = 60_000
			return cfg
		},
		Version: "client-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return client.New(ts.URL + "/") // trailing slash is normalized away
}

func TestClientEndToEnd(t *testing.T) {
	c := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthy: %v", err)
	}
	infos, err := c.Experiments(ctx)
	if err != nil || len(infos) != 17 {
		t.Fatalf("experiments: %d, %v", len(infos), err)
	}

	seed := int64(7)
	req := api.JobRequest{
		Experiment: "fig3",
		Benchmarks: []string{"crafty"},
		Quantum:    60_000,
		Warmup:     1_000,
		Seed:       &seed,
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Status.Terminal() {
		t.Fatalf("submit status: %+v", st)
	}

	// Wait over the SSE stream; progress must be monotonic.
	last := -1
	final, err := c.Wait(ctx, st.ID, func(p api.Progress) {
		if p.Completed < last {
			t.Errorf("progress regressed: %d -> %d", last, p.Completed)
		}
		last = p.Completed
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone || final.Summary == nil || final.Summary.Succeeded != 4 {
		t.Fatalf("final: %+v", final)
	}
	if last != 4 {
		t.Errorf("last observed progress = %d, want 4", last)
	}

	// The artifact is fetchable in every format.
	for _, format := range []string{"", "table", "json", "csv"} {
		b, err := c.Artifact(ctx, st.ID, format)
		if err != nil {
			t.Fatalf("artifact %q: %v", format, err)
		}
		if !strings.Contains(string(b), "crafty") {
			t.Errorf("artifact %q missing data:\n%s", format, b)
		}
	}

	// Resubmitting is a cache hit with the same content address.
	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.ID != st.ID {
		t.Fatalf("resubmit: %+v", st2)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.CacheHits != 1 {
		t.Errorf("stats: %+v", stats)
	}
}

func TestClientErrors(t *testing.T) {
	c := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Submit(ctx, api.JobRequest{Experiment: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("bad experiment err = %v", err)
	}
	if _, err := c.Job(ctx, "missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing job err = %v", err)
	}
	if _, err := c.Artifact(ctx, "missing", "csv"); err == nil {
		t.Error("missing artifact should error")
	}
	if err := c.Events(ctx, "missing", func(api.Event) error { return nil }); err == nil {
		t.Error("missing events should error")
	}
}
