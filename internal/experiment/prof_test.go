package experiment

import (
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
)

func benchRun(b *testing.B, pair bool) {
	o := Options{}.normalized()
	spec, _ := specThread("crafty", 1)
	v2, _ := variantThread(2, 16)
	for i := 0; i < b.N; i++ {
		var j job
		if pair {
			j = pairJob(o, "p", spec, v2, dtm.StopAndGo, false)
		} else {
			j = soloJob(o, "s", spec, dtm.StopAndGo, false)
		}
		j.cfg.Run.QuantumCycles = 2_000_000
		s, err := sim.NewMulti(j.cfg, j.cores, j.opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileSolo(b *testing.B) { benchRun(b, false) }
func BenchmarkProfilePair(b *testing.B) { benchRun(b, true) }
