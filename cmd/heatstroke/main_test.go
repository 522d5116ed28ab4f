package main

import (
	"bytes"
	"log"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// TestLocalRunRejectsWhatDaemonRejects: a local run resolves its
// request as a daemon does, so flags a daemon answers 400 to exit
// non-zero with the daemon's message instead of running on defaults.
func TestLocalRunRejectsWhatDaemonRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		req  api.JobRequest
	}{
		{"lumped die", []string{"-experiment", "neighbor-heat", "-solver", "lumped", "-bench", "crafty", "-quantum", "20000", "-warmup", "1000"},
			api.JobRequest{Experiment: "neighbor-heat", Solver: config.SolverLumped}},
		{"negative scale", []string{"-experiment", "table1", "-scale", "-1"},
			api.JobRequest{Experiment: "table1", Scale: -1}},
		{"negative quantum", []string{"-experiment", "table1", "-quantum", "-1"},
			api.JobRequest{Experiment: "table1", Quantum: -1}},
		{"negative warmup", []string{"-experiment", "table1", "-warmup", "-1"},
			api.JobRequest{Experiment: "table1", Warmup: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, want := server.Resolve("", config.Default, tc.req)
			if want == nil {
				t.Fatal("Resolve accepts the request")
			}
			var logs bytes.Buffer
			defer log.SetOutput(log.Writer())
			log.SetOutput(&logs)
			if code := run(tc.args); code == 0 {
				t.Errorf("%v exited 0, want non-zero", tc.args)
			}
			if !strings.Contains(logs.String(), want.Error()) {
				t.Errorf("%v logged %q, want %q", tc.args, logs.String(), want.Error())
			}
		})
	}
}
