// Package campaign is the red-team harness for the detection pipeline:
// it composes parameterized bot countermeasures over the §VI evasion
// transforms, sweeps them — at increasing intensity, across synthesized
// worlds — against the configured detector ensemble, and reports the
// resulting detection-rate-vs-evasion-cost frontier. The paper's evasion
// argument is that every evasion has a cost; the campaign runner turns
// that argument into a reproducible measurement.
package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"plotters/internal/evasion"
	"plotters/internal/flow"
)

// Cost is the machine-readable price a botnet pays for one
// countermeasure application: conspicuous extra traffic, extra peer
// infrastructure exposed, and slower command propagation.
type Cost struct {
	// ExtraBytes is the additional upload volume over the untransformed
	// trace.
	ExtraBytes int64 `json:"extra_bytes"`
	// ExtraPeers is the additional count of distinct destinations
	// contacted.
	ExtraPeers int `json:"extra_peers"`
	// AddedLatency is the expected added command-propagation delay per
	// hop.
	AddedLatency time.Duration `json:"added_latency_ns"`
}

// Add accumulates another cost (e.g. the second honeynet trace's).
func (c Cost) Add(other Cost) Cost {
	c.ExtraBytes += other.ExtraBytes
	c.ExtraPeers += other.ExtraPeers
	c.AddedLatency += other.AddedLatency
	return c
}

// AtLeast reports whether every cost component is >= the other's —
// the partial order the frontier monotonicity check uses.
func (c Cost) AtLeast(other Cost) bool {
	return c.ExtraBytes >= other.ExtraBytes &&
		c.ExtraPeers >= other.ExtraPeers &&
		c.AddedLatency >= other.AddedLatency
}

// Env is the world-derived context a countermeasure needs: where fresh
// decoy addresses come from and what volume threshold padding aims for.
type Env struct {
	// FreshPool supplies never-before-seen destinations for churn
	// mimicry.
	FreshPool []flow.IP
	// VolTarget is the world's τ_vol (bytes/flow): the paper pipeline's
	// threshold on the baseline sweep's day 0, what volume padding pads
	// toward.
	VolTarget float64
}

// Countermeasure is one parameterized bot-side evasion. Apply transforms
// a honeynet trace at the given intensity in [0, 1] (0 = no change,
// 1 = the countermeasure's full strength) and reports what it cost.
// Implementations must be deterministic given the rng and must consume
// the same rng draw sequence at every intensity, so that a fixed seed
// makes cost monotone in intensity (common random numbers).
type Countermeasure interface {
	Name() string
	Apply(records []flow.Record, intensity float64, env Env, rng *rand.Rand) ([]flow.Record, Cost, error)
}

// checkIntensity validates the shared intensity domain.
func checkIntensity(intensity float64) error {
	if intensity < 0 || intensity > 1 || math.IsNaN(intensity) {
		return fmt.Errorf("campaign: intensity must be in [0,1], got %v", intensity)
	}
	return nil
}

// trafficDelta computes the observable cost components by diffing the
// transformed trace against the original: upload bytes and distinct
// destinations.
func trafficDelta(in, out []flow.Record) (extraBytes int64, extraPeers int) {
	var inBytes, outBytes int64
	inDsts := make(map[flow.IP]bool)
	outDsts := make(map[flow.IP]bool)
	for _, r := range in {
		inBytes += int64(r.SrcBytes)
		inDsts[r.Dst] = true
	}
	for _, r := range out {
		outBytes += int64(r.SrcBytes)
		outDsts[r.Dst] = true
	}
	return outBytes - inBytes, len(outDsts) - len(inDsts)
}

// TimerJitter randomizes repeat-contact timing by ±d with d =
// intensity·Max — the paper's θ_hm evasion. Its cost is command latency:
// a uniform ±d delay adds d/2 expected latency per propagation hop.
type TimerJitter struct {
	// Max is the full-strength jitter bound.
	Max time.Duration
}

// Name implements Countermeasure.
func (TimerJitter) Name() string { return "timer-jitter" }

// Apply implements Countermeasure.
func (t TimerJitter) Apply(records []flow.Record, intensity float64, _ Env, rng *rand.Rand) ([]flow.Record, Cost, error) {
	if err := checkIntensity(intensity); err != nil {
		return nil, Cost{}, err
	}
	d := time.Duration(intensity * float64(t.Max))
	out, err := evasion.JitterRepeatContacts(records, d, rng)
	if err != nil {
		return nil, Cost{}, err
	}
	return out, Cost{AddedLatency: d / 2}, nil
}

// ChurnMimicry rewrites repeat contacts toward fresh decoy addresses so
// the bot's new-destination fraction looks Trader-like — evading θ_churn
// at the cost of maintaining (and burning) throwaway peer
// infrastructure. Intensity 1 applies MaxFactor.
type ChurnMimicry struct {
	// MaxFactor is the full-strength churn inflation factor.
	MaxFactor float64
}

// Name implements Countermeasure.
func (ChurnMimicry) Name() string { return "churn-mimicry" }

// Apply implements Countermeasure.
func (c ChurnMimicry) Apply(records []flow.Record, intensity float64, env Env, rng *rand.Rand) ([]flow.Record, Cost, error) {
	if err := checkIntensity(intensity); err != nil {
		return nil, Cost{}, err
	}
	factor := 1 + intensity*(c.MaxFactor-1)
	out, err := evasion.InflateChurn(records, factor, env.FreshPool, rng)
	if err != nil {
		return nil, Cost{}, err
	}
	extraBytes, extraPeers := trafficDelta(records, out)
	return out, Cost{ExtraBytes: extraBytes, ExtraPeers: extraPeers}, nil
}

// VolumePadding pads every successful flow with junk bytes toward the
// world's τ_vol — evading the volume test by looking like a Trader-scale
// uploader, at the cost of exactly that much conspicuous extra traffic.
type VolumePadding struct{}

// Name implements Countermeasure.
func (VolumePadding) Name() string { return "volume-padding" }

// Apply implements Countermeasure.
func (VolumePadding) Apply(records []flow.Record, intensity float64, env Env, _ *rand.Rand) ([]flow.Record, Cost, error) {
	if err := checkIntensity(intensity); err != nil {
		return nil, Cost{}, err
	}
	pad := uint64(intensity * env.VolTarget)
	out := evasion.PadFlows(records, pad)
	extraBytes, extraPeers := trafficDelta(records, out)
	return out, Cost{ExtraBytes: extraBytes, ExtraPeers: extraPeers}, nil
}

// SlowStart rations peer rendezvous over a ramp of up to intensity·Max:
// first contacts spread out instead of bursting, flattening the
// new-destination rate θ_churn keys on, at the cost of reaching each
// peer up to that much later.
type SlowStart struct {
	// Max is the full-strength onset ramp.
	Max time.Duration
}

// Name implements Countermeasure.
func (SlowStart) Name() string { return "slow-start" }

// Apply implements Countermeasure.
func (s SlowStart) Apply(records []flow.Record, intensity float64, _ Env, rng *rand.Rand) ([]flow.Record, Cost, error) {
	if err := checkIntensity(intensity); err != nil {
		return nil, Cost{}, err
	}
	d := time.Duration(intensity * float64(s.Max))
	out, err := evasion.SlowStartContacts(records, d, rng)
	if err != nil {
		return nil, Cost{}, err
	}
	return out, Cost{AddedLatency: d / 2}, nil
}

// DefaultCountermeasures returns the §VI set at full-strength parameters
// matching the paper's discussion: minute-scale timer randomization,
// Trader-scale churn, τ_vol padding, and an hour-scale contact ramp.
func DefaultCountermeasures() []Countermeasure {
	return []Countermeasure{
		TimerJitter{Max: 10 * time.Minute},
		ChurnMimicry{MaxFactor: 4},
		VolumePadding{},
		SlowStart{Max: 2 * time.Hour},
	}
}
