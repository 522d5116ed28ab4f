package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Digest returns a canonical SHA-256 digest of the full configuration,
// hex-encoded. Two Configs digest equal iff every architectural,
// power, thermal, sedation, and run parameter is equal, so the digest
// is a sound cache key component for deterministic simulations: same
// digest + same seed + same code version ⇒ byte-identical results.
//
// Canonicality relies on two properties of the encoding: Config is a
// tree of plain structs (no maps, pointers, or interface values), and
// encoding/json emits struct fields in declaration order. Renaming or
// reordering fields therefore changes the digest — which is the
// desired behaviour, since a field change means the simulated machine
// may differ.
func (c *Config) Digest() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config contains only numeric, boolean, and string fields;
		// Marshal cannot fail on it.
		panic("config: digest encoding failed: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WarmDigest returns the digest of the configuration with every
// warmup-invariant field normalized away. Warmup runs the pipeline
// under no DTM policy and never reads a temperature threshold: the
// post-warmup machine state (core, caches, predictors, activity
// counters, sedation-monitor averages, thermal network) depends only
// on the architectural, power, thermal, and sampling parameters. The
// sedation *decision* knobs — thresholds, the re-examination window,
// the ablation switches — and the measurement quantum length are
// consumed strictly after warmup, so two Configs with equal WarmDigest
// produce deep-equal warmup snapshots and may share one. The monitor's
// own parameters (SampleIntervalCycles, EWMAShift) DO shape warm state
// (the primed averages) and stay in the digest.
//
// This is the key a fork-tree sweep shares warm prefixes under: a
// threshold grid re-simulates its warmup once instead of once per grid
// point. Soundness is enforced by TestWarmDigestInvariance
// (internal/sim), which finds every excluded field and checks warmup
// snapshot deep-equality across it.
func (c *Config) WarmDigest() string {
	n := *c
	n.Sedation.UpperK = 0
	n.Sedation.LowerK = 0
	n.Sedation.ReexamineFactor = 0
	n.Sedation.ExpectedCoolingCycles = 0
	n.Sedation.UseFlatAverage = false
	n.Sedation.AbsoluteEWMAThreshold = 0
	n.Run.QuantumCycles = 0
	return n.Digest()
}
