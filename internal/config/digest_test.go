package config

import (
	"encoding/hex"
	"testing"
)

func TestDigestStable(t *testing.T) {
	a, b := Default(), Default()
	da, db := a.Digest(), b.Digest()
	if da != db {
		t.Fatalf("identical configs digest differently: %s vs %s", da, db)
	}
	if raw, err := hex.DecodeString(da); err != nil || len(raw) != 32 {
		t.Fatalf("digest %q is not 32 hex bytes (err=%v)", da, err)
	}
	// Repeated calls on the same value are stable.
	if a.Digest() != da {
		t.Error("digest not idempotent")
	}
}

func TestDigestSensitivity(t *testing.T) {
	baseCfg := Default()
	base := baseCfg.Digest()
	mutations := map[string]func(*Config){
		"seed":         func(c *Config) { c.Run.Seed++ },
		"quantum":      func(c *Config) { c.Run.QuantumCycles++ },
		"scale":        func(c *Config) { c.Thermal.Scale *= 2 },
		"fetch policy": func(c *Config) { c.Pipeline.FetchPolicy = "rr" },
		"emergency":    func(c *Config) { c.Thermal.EmergencyK += 0.5 },
		"ewma shift":   func(c *Config) { c.Sedation.EWMAShift++ },
		"ideal sink":   func(c *Config) { c.Thermal.IdealSink = true },
		"l2 size":      func(c *Config) { c.Memory.L2.SizeBytes *= 2 },
		"cores":        func(c *Config) { c.Topology.Cores = 2; c.Topology.Solver = SolverGrid },
		"solver":       func(c *Config) { c.Topology.Solver = SolverGrid },
		"grid n":       func(c *Config) { c.Topology.Solver = SolverGrid; c.Topology.GridN = 64 },
	}
	seen := map[string]string{"base": base}
	for name, mutate := range mutations {
		c := Default()
		mutate(&c)
		d := c.Digest()
		if d == base {
			t.Errorf("%s mutation did not change the digest", name)
		}
		for prev, pd := range seen {
			if pd == d {
				t.Errorf("mutations %s and %s collide", name, prev)
			}
		}
		seen[name] = d
	}
}

func TestWarmDigestIgnoresEngineFields(t *testing.T) {
	base := Default()
	bd := base.WarmDigest()
	// Fields consumed only after warmup, and the seed (which reaches
	// warm state only through the programs it generates, keyed
	// separately): varying them must not change the warm key, so a
	// threshold grid shares one warmup and seeds share whatever their
	// programs share.
	invariant := map[string]func(*Config){
		"seed":         func(c *Config) { c.Run.Seed++ },
		"upper":        func(c *Config) { c.Sedation.UpperK = 357.0 },
		"lower":        func(c *Config) { c.Sedation.LowerK = 354.5 },
		"reexamine":    func(c *Config) { c.Sedation.ReexamineFactor = 3 },
		"cooling":      func(c *Config) { c.Sedation.ExpectedCoolingCycles = 250_000 },
		"flat average": func(c *Config) { c.Sedation.UseFlatAverage = true },
		"abs ewma":     func(c *Config) { c.Sedation.AbsoluteEWMAThreshold = 8 },
		"quantum":      func(c *Config) { c.Run.QuantumCycles = 123_456 },
	}
	for name, mutate := range invariant {
		c := Default()
		mutate(&c)
		if c.WarmDigest() != bd {
			t.Errorf("%s mutation changed the warm digest but is warmup-invariant", name)
		}
		if c.Digest() == base.Digest() {
			t.Errorf("%s mutation did not change the full digest", name)
		}
	}
	// Everything that does shape warm state must still be keyed.
	sensitive := map[string]func(*Config){
		"scale":           func(c *Config) { c.Thermal.Scale *= 2 },
		"sample interval": func(c *Config) { c.Sedation.SampleIntervalCycles *= 2 },
		"ewma shift":      func(c *Config) { c.Sedation.EWMAShift++ },
		"convection":      func(c *Config) { c.Thermal.ConvectionRes = 0.5 },
		"ideal sink":      func(c *Config) { c.Thermal.IdealSink = true },
		"l2 size":         func(c *Config) { c.Memory.L2.SizeBytes *= 2 },
		"cores":           func(c *Config) { c.Topology.Cores = 2; c.Topology.Solver = SolverGrid },
		"solver":          func(c *Config) { c.Topology.Solver = SolverGrid },
	}
	for name, mutate := range sensitive {
		c := Default()
		mutate(&c)
		if c.WarmDigest() == bd {
			t.Errorf("%s mutation did not change the warm digest", name)
		}
	}
}

func TestDigestPaperVsDefault(t *testing.T) {
	d, p := Default(), Paper()
	if d.Digest() == p.Digest() {
		t.Error("Default and Paper configs must digest differently (scale and quantum differ)")
	}
}
