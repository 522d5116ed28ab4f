package dtm

import (
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
)

func newTestChipRR(t *testing.T, cores int) (ChipPolicy, []*fakePipe) {
	t.Helper()
	pipes := make([]*fakePipe, cores)
	ifaces := make([]Pipeline, cores)
	for i := range pipes {
		pipes[i] = &fakePipe{}
		ifaces[i] = pipes[i]
	}
	p, err := NewChipRoundRobin(ifaces, config.Default().Thermal, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return p, pipes
}

func throttledSet(pipes []*fakePipe) []int {
	var out []int
	for i, p := range pipes {
		if p.thNum != 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestChipRRDepthBands: the number of simultaneously throttled cores
// follows how far the hottest sensor sits above the trigger, in 0.5 K
// bands, saturating at the whole chip.
func TestChipRRDepthBands(t *testing.T) {
	th := config.Default().Thermal
	trigger := th.EmergencyK - 2.5
	cases := []struct {
		maxT  float64
		depth int
	}{
		{trigger - 1.0, 0},
		{trigger + 0.1, 1},
		{trigger + 0.6, 2},
		{trigger + 1.1, 3},
		{trigger + 2.4, 4}, // would be 5 bands; saturates at 4 cores
	}
	for _, tc := range cases {
		p, pipes := newTestChipRR(t, 4)
		p.TickChip(0, []float64{tc.maxT, 300, 300, 300})
		if got := len(throttledSet(pipes)); got != tc.depth {
			t.Errorf("maxT %.2f K: %d cores throttled, want %d", tc.maxT, got, tc.depth)
		}
	}
}

// TestChipRRRotation: the throttle burden rotates one core per tick,
// so over a full revolution every core takes an equal share — the
// fairness property that distinguishes the chip scope from per-core
// policies, which pin the penalty on whichever core hosts the hot spot.
func TestChipRRRotation(t *testing.T) {
	th := config.Default().Thermal
	p, pipes := newTestChipRR(t, 4)
	hot := []float64{th.EmergencyK - 2.3, 300, 300, 300} // one band: depth 1
	counts := make([]int, 4)
	for cycle := int64(0); cycle < 8; cycle++ {
		p.TickChip(cycle, hot)
		set := throttledSet(pipes)
		if len(set) != 1 {
			t.Fatalf("tick %d: throttled %v, want exactly one core", cycle, set)
		}
		counts[set[0]]++
	}
	for i, c := range counts {
		if c != 2 {
			t.Errorf("core %d throttled %d/8 ticks, want 2 (even rotation)", i, c)
		}
	}
	// Cooling below the trigger releases everyone.
	p.TickChip(8, []float64{300, 300, 300, 300})
	if set := throttledSet(pipes); len(set) != 0 {
		t.Errorf("cooled chip still throttles %v", set)
	}
}

// TestChipRRSafetyNet: at the emergency threshold the chip-wide
// stop-and-go halts every core for the cooling time, and the typed
// event stream records the engage/release pair.
func TestChipRRSafetyNet(t *testing.T) {
	th := config.Default().Thermal
	p, pipes := newTestChipRR(t, 2)
	log := &telemetry.EventLog{}
	SetChipEventLog(p, log)

	hot := []float64{300, th.EmergencyK + 1}
	p.TickChip(0, hot)
	for i, fp := range pipes {
		if !fp.stalled {
			t.Errorf("core %d not stalled at emergency", i)
		}
	}
	if ChipSafetyNetEngagements(p) != 1 {
		t.Errorf("engagements %d, want 1", ChipSafetyNetEngagements(p))
	}
	// Still engaged before the cooling time elapses, even if cooled.
	p.TickChip(500, []float64{300, 300})
	if !pipes[0].stalled {
		t.Error("released before the cooling time elapsed")
	}
	p.TickChip(1000, []float64{300, 300})
	for i, fp := range pipes {
		if fp.stalled {
			t.Errorf("core %d still stalled after the cooling time", i)
		}
	}
	if len(log.Events) != 2 ||
		log.Events[0].Kind != telemetry.KindStopGoEngage ||
		log.Events[1].Kind != telemetry.KindStopGoRelease {
		t.Errorf("event stream %+v, want engage then release", log.Events)
	}
}

// TestNewChipRoundRobinRejectsEmpty: a chip policy over zero pipelines
// is a construction error, not a latent panic.
func TestNewChipRoundRobinRejectsEmpty(t *testing.T) {
	if _, err := NewChipRoundRobin(nil, config.Default().Thermal, 1000); err == nil {
		t.Error("chip policy over zero pipelines accepted")
	}
}
