package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
)

// observedSim builds machine m under o with every observation channel
// on, so divergence anywhere shows up in a deep-equal Result.
func observedSim(t *testing.T, m testMachine, o Options, ff bool) *Simulator {
	t.Helper()
	o.WarmupCycles = 60_000
	o.TraceTemps = true
	o.CollectEvents = true
	o.DisableFastForward = !ff
	return m.build(t, o)
}

// TestStepRunPause: a quantum paused at a sensor boundary and continued
// in place ends deep-equal to a straight RunCycles. The table picks
// the split point (after 1..8 sensor intervals of a 10-interval
// quantum), the DTM scope and policy (an index into scopeOptions), the
// fast-forward switch and the machine (one core, or the 2-core die).
func TestStepRunPause(t *testing.T) {
	machines := testMachines(t)
	for _, tc := range []struct {
		split, policy int
		ff, die       bool
	}{
		{4, 1, true, false},
		{1, 4, false, false},
		{8, 2, true, false},
		{6, 0, false, false},
		{3, 4, true, true},  // 2-core die, per-core sedation
		{7, 5, false, true}, // 2-core die, chip scope
	} {
		m := machines[0]
		if tc.die {
			m = machines[1]
		}
		o := scopeOptions()[tc.policy]
		ff := "off"
		if tc.ff {
			ff = "on"
		}
		t.Run(fmt.Sprintf("%s/%s/%d/ff=%s", m.name, o.Policy, tc.split, ff), func(t *testing.T) {
			sensor := int64(m.cfg.Thermal.SensorIntervalCycles)
			split, total := int64(tc.split)*sensor, 10*sensor
			want, err := observedSim(t, m, o, tc.ff).RunCycles(total)
			if err != nil {
				t.Fatal(err)
			}
			s := observedSim(t, m, o, tc.ff)
			if err := s.BeginRun(total); err != nil {
				t.Fatal(err)
			}
			if done, err := s.StepRun(split); err != nil || done {
				t.Fatalf("StepRun(%d) = done %v, err %v", split, done, err)
			}
			if done, q := s.qr.done, s.qr.quantum; done != split || q != total {
				t.Fatalf("progress = %d/%d, want %d/%d", done, q, split, total)
			}
			if done, err := s.StepRun(total); err != nil || !done {
				t.Fatalf("StepRun to end = done %v, err %v", done, err)
			}
			got, err := s.FinishRun()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("the paused quantum diverges from the straight run")
			}
		})
	}
}

// TestBeginStepFinishMisuse locks in the quantum API's error paths.
func TestBeginStepFinishMisuse(t *testing.T) {
	s := observedSim(t, testMachines(t)[0], Options{Policy: dtm.None}, true)
	if _, err := s.StepRun(1000); err == nil {
		t.Error("StepRun before BeginRun should fail")
	}
	if _, err := s.FinishRun(); err == nil {
		t.Error("FinishRun before BeginRun should fail")
	}
	if err := s.BeginRun(0); err == nil {
		t.Error("BeginRun(0) should fail")
	}
	if err := s.BeginRun(int64(s.cfg.Thermal.SensorIntervalCycles)); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginRun(1000); err == nil {
		t.Error("nested BeginRun should fail")
	}
	if done, q := s.qr.done, s.qr.quantum; done != 0 || q != int64(s.cfg.Thermal.SensorIntervalCycles) {
		t.Errorf("progress = %d/%d", done, q)
	}
	if done, err := s.StepRun(1 << 40); err != nil || !done {
		t.Fatalf("StepRun clamp = done %v, err %v", done, err)
	}
	if _, err := s.FinishRun(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FinishRun(); err == nil {
		t.Error("double FinishRun should fail")
	}
}
