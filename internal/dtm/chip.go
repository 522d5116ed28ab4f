// Chip-wide DTM scope. The paper's five policies each watch one
// core's sensors and actuate that core's pipeline; on a multi-core
// die that is the "per-core" scope and they run unchanged, one
// instance per core. The chip scope instead observes every core and
// decides globally — the CoMeT-style round-robin throttle below —
// trading single-core responsiveness for fairness: the throttle burden
// rotates over the whole die instead of pinning whichever core happens
// to host the hot spot (which, under a neighbor-heat attack, is the
// victim rather than the attacker).
package dtm

import (
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
)

// Scope selects whether DTM observes and actuates one core or the
// whole chip.
type Scope string

// Scopes.
const (
	ScopePerCore Scope = "per-core"
	ScopeChip    Scope = "chip"
)

// ChipRoundRobin is the chip-scope policy kind.
const ChipRoundRobin Kind = "chip-rr"

// ChipPolicy reacts to the whole die's temperatures once per sensor
// interval.
type ChipPolicy interface {
	// Name returns the policy kind.
	Name() Kind
	// TickChip observes each core's hottest-unit temperature and
	// actuates the per-core pipelines. len(coreMaxT) matches the
	// pipeline count the policy was built with.
	TickChip(cycle int64, coreMaxT []float64)
}

// chipRR is the CoMeT-style chip round-robin throttle (SNIPPETS.md
// #3): the number of simultaneously throttled cores follows how far
// the chip's hottest sensor sits above the trigger, in bandK steps,
// and *which* cores take the throttle rotates one position per tick.
// A chip-wide stop-and-go safety net underneath halts every core at
// the emergency temperature, mirroring the per-core policies.
type chipRR struct {
	pipes   []Pipeline
	trigger float64
	bandK   float64
	cursor  int

	emergency     float64
	coolingCycles int64
	engaged       bool
	resumeAt      int64
	Engagements   uint64
	events        *telemetry.EventLog
}

// NewChipRoundRobin builds the chip round-robin throttle over one
// pipeline per core. coolingCycles is the package's thermal-RC cooling
// time in (scaled) cycles, shared with the per-core policies.
func NewChipRoundRobin(pipes []Pipeline, t config.Thermal, coolingCycles int64) (ChipPolicy, error) {
	if len(pipes) == 0 {
		return nil, fmt.Errorf("dtm: chip policy needs at least one pipeline")
	}
	return &chipRR{
		pipes:         pipes,
		trigger:       t.EmergencyK - 2.5,
		bandK:         0.5,
		emergency:     t.EmergencyK,
		coolingCycles: coolingCycles,
	}, nil
}

func (c *chipRR) Name() Kind { return ChipRoundRobin }

func (c *chipRR) TickChip(cycle int64, coreMaxT []float64) {
	maxT := coreMaxT[0]
	for _, t := range coreMaxT[1:] {
		if t > maxT {
			maxT = t
		}
	}

	// Chip-wide stop-and-go safety net.
	if c.engaged {
		if cycle >= c.resumeAt {
			c.engaged = false
			for _, p := range c.pipes {
				p.SetGlobalStall(false)
			}
			c.events.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.KindStopGoRelease,
				Thread: -1, TempK: maxT})
		}
		return
	}
	if maxT >= c.emergency {
		c.engaged = true
		c.Engagements++
		c.resumeAt = cycle + c.coolingCycles
		for _, p := range c.pipes {
			p.SetGlobalStall(true)
		}
		c.events.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.KindStopGoEngage,
			Thread: -1, TempK: maxT})
		return
	}

	// Throttle depth from the hottest sensor's excess, one extra core
	// per band, saturating at the whole chip.
	depth := 0
	if maxT > c.trigger {
		depth = 1 + int((maxT-c.trigger)/c.bandK)
		if depth > len(c.pipes) {
			depth = len(c.pipes)
		}
	}
	// Rotate the burden: cores cursor..cursor+depth-1 (mod n) take the
	// half-speed throttle this interval, everyone else runs free.
	n := len(c.pipes)
	for i, p := range c.pipes {
		throttled := false
		for k := 0; k < depth; k++ {
			if (c.cursor+k)%n == i {
				throttled = true
				break
			}
		}
		if throttled {
			p.SetThrottle(1, 2)
		} else {
			p.SetThrottle(0, 0)
		}
	}
	c.cursor = (c.cursor + 1) % n
}

// SetChipEventLog wires a chip policy's safety net to the typed event
// stream.
func SetChipEventLog(p ChipPolicy, log *telemetry.EventLog) {
	if v, ok := p.(*chipRR); ok {
		v.events = log
	}
}

// ChipSafetyNetEngagements returns how many times a chip policy's
// stop-and-go safety net fired.
func ChipSafetyNetEngagements(p ChipPolicy) uint64 {
	if v, ok := p.(*chipRR); ok {
		return v.Engagements
	}
	return 0
}
