// Package core implements the paper's contribution: the FindPlotters
// detection pipeline (§IV). Given one detection window of border flow
// records, it runs
//
//	S            ← initial data reduction (failed-connection rate ≥ median)   §V-A
//	S_vol        ← θ_vol(Λ, S, τ_vol)       hosts with low upload volume      §IV-A
//	S_churn      ← θ_churn(Λ, S, τ_churn)   hosts with low peer churn         §IV-B
//	S_hm         ← θ_hm(Λ, S_vol ∪ S_churn, τ_hm)  machine-timed clusters     §IV-C
//
// and reports S_hm as the suspected Plotters. Every threshold is a
// percentile of the observed population, never a fixed constant — the
// property the paper's evasion analysis (§VI) builds on.
package core

import (
	"fmt"
	"time"

	"plotters/internal/flow"
	"plotters/internal/metrics"
	"plotters/internal/stats"
)

// Config tunes the pipeline. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	// VolPercentile positions τ_vol within the per-host average
	// bytes-per-flow distribution (the paper uses the 50th percentile).
	VolPercentile float64
	// ChurnPercentile positions τ_churn within the per-host new-peer
	// fraction distribution (paper: 50th).
	ChurnPercentile float64
	// HMPercentile positions τ_hm within the cluster-diameter
	// distribution. The paper operates at the 70th percentile of strict
	// max-pairwise diameters over a campus-scale population; with the
	// smaller synthesized population and the default mean-pairwise
	// spread statistic, the equivalent operating point sits at the 30th
	// percentile (see EXPERIMENTS.md). The ROC experiments sweep this
	// parameter exactly as the paper does.
	HMPercentile float64
	// CutFraction is the fraction of heaviest dendrogram links removed
	// when forming clusters. The paper cuts 5% at campus scale
	// (thousands of clusterable hosts); at the few-hundred-host scale of
	// the synthesized evaluation the same granularity needs a larger
	// fraction, so DefaultConfig uses 0.15. Set 0.05 to mirror the paper
	// exactly on large populations.
	CutFraction float64
	// MinInterstitialSamples is the minimum number of per-destination
	// interstitial time observations a host needs to participate in
	// θ_hm clustering.
	MinInterstitialSamples int
	// NewPeerGrace is the churn feature's warm-up period (paper: the
	// host's first hour of activity).
	NewPeerGrace time.Duration
	// MaxDiameter uses the strict maximum pairwise distance as the
	// cluster diameter in θ_hm instead of the default mean pairwise
	// distance. The mean is robust to a single outlying member; the
	// maximum is the literal reading of "diameter". Kept for ablation.
	MaxDiameter bool
	// RawTimeScale disables the log-time transform applied to
	// interstitial samples before histogram construction. On the raw
	// axis, EMD is dominated by heavy tail gaps (hours) and the
	// second-scale timer structure that distinguishes machine-driven
	// traffic is invisible; the log axis weighs relative timing
	// differences. Kept as an option for ablation studies.
	RawTimeScale bool
	// Parallelism bounds the worker pools of θ_hm's pairwise EMD
	// distance matrix — the pipeline's dominant cost at scale — and of
	// per-host sketch building, both in θ_hm and in a shard's LocalPass.
	// 0 means one worker per CPU; 1 forces fully sequential execution
	// (useful for reproducible benchmarking and debugging). The
	// detection output is identical at every setting; only wall-clock
	// time changes.
	Parallelism int
	// Metrics, when non-nil, receives per-stage wall times, candidate-set
	// sizes, and distance-matrix worker statistics from every pipeline
	// run (see the run-report flags on cmd/plotfind and
	// cmd/experiments). Nil disables instrumentation at zero cost; the
	// detection output is identical either way.
	Metrics *metrics.Registry
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		VolPercentile:          50,
		ChurnPercentile:        50,
		HMPercentile:           30,
		CutFraction:            0.15,
		MinInterstitialSamples: 100,
		NewPeerGrace:           time.Hour,
	}
}

// Validate checks the configuration. Each range is checked as
// !(in range), so NaN, which fails every comparison, is out of range.
func (c *Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"VolPercentile", c.VolPercentile},
		{"ChurnPercentile", c.ChurnPercentile},
		{"HMPercentile", c.HMPercentile},
	} {
		if !(p.v >= 0 && p.v <= 100) {
			return fmt.Errorf("core: %s = %v outside [0,100]", p.name, p.v)
		}
	}
	if !(c.CutFraction >= 0 && c.CutFraction < 1) {
		return fmt.Errorf("core: CutFraction = %v outside [0,1)", c.CutFraction)
	}
	if c.MinInterstitialSamples < 2 {
		return fmt.Errorf("core: MinInterstitialSamples = %d must be >= 2", c.MinInterstitialSamples)
	}
	if c.NewPeerGrace <= 0 {
		return fmt.Errorf("core: NewPeerGrace must be positive")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism = %d must be >= 0 (0 = all CPUs)", c.Parallelism)
	}
	return nil
}

// HostSet is a set of internal host addresses.
type HostSet map[flow.IP]bool

// NewHostSet builds a set from addresses.
func NewHostSet(hosts ...flow.IP) HostSet {
	s := make(HostSet, len(hosts))
	for _, h := range hosts {
		s[h] = true
	}
	return s
}

// Union returns s ∪ t.
func (s HostSet) Union(t HostSet) HostSet {
	out := make(HostSet, len(s)+len(t))
	for h := range s {
		out[h] = true
	}
	for h := range t {
		out[h] = true
	}
	return out
}

// Intersect returns s ∩ t.
func (s HostSet) Intersect(t HostSet) HostSet {
	out := make(HostSet)
	for h := range s {
		if t[h] {
			out[h] = true
		}
	}
	return out
}

// Sorted returns the members in ascending address order.
func (s HostSet) Sorted() []flow.IP { return flow.SortedHosts(s) }

// Analysis holds the per-host features of one detection window, shared
// by all tests so the features are materialized once. It does not care
// how the window was sealed — batch extraction over a record slice, a
// pane the windowed engine took from its store, or merged shard
// summaries — only that it arrives as a flow.FeatureSource.
type Analysis struct {
	cfg      Config
	src      flow.FeatureSource
	feats    map[flow.IP]*flow.HostFeatures
	sketches map[flow.IP]flow.Sketch // nil: θ_hm builds them from Interstitials
}

// NewAnalysis extracts features for internal hosts from the window's
// records and wraps them for detection — the batch FeatureSource path.
// internal selects the monitored addresses (nil = every initiator).
func NewAnalysis(records []flow.Record, internal func(flow.IP) bool, cfg Config) (*Analysis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.Metrics.StartStage("pipeline/extract")
	src := flow.ExtractFeatureSet(records, flow.FeatureOptions{
		Hosts:        internal,
		NewPeerGrace: cfg.NewPeerGrace,
	}, flow.Window{})
	t.Stop()
	cfg.Metrics.Counter("pipeline/records").Add(int64(len(records)))
	return NewAnalysisFromSource(src, cfg)
}

// NewAnalysisFromSource wraps already-accumulated features for
// detection. The source's feature map is referenced, not copied; the
// caller must not keep mutating it (seal or snapshot streaming stores
// first).
func NewAnalysisFromSource(src flow.FeatureSource, cfg Config) (*Analysis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil feature source")
	}
	return &Analysis{cfg: cfg, src: src, feats: src.Features(), sketches: src.Sketches()}, nil
}

// Source returns the feature source the analysis wraps, so further
// detectors can run over the same extraction.
func (a *Analysis) Source() flow.FeatureSource { return a.src }

// Features exposes the extracted per-host features.
func (a *Analysis) Features() map[flow.IP]*flow.HostFeatures { return a.feats }

// Hosts returns every analyzed host.
func (a *Analysis) Hosts() HostSet {
	s := make(HostSet, len(a.feats))
	for h := range a.feats {
		s[h] = true
	}
	return s
}

// featureValues collects get(features) over the members of s in
// deterministic order.
func (a *Analysis) featureValues(s HostSet, get func(*flow.HostFeatures) float64) []float64 {
	hosts := s.Sorted()
	vals := make([]float64, 0, len(hosts))
	for _, h := range hosts {
		if f, ok := a.feats[h]; ok {
			vals = append(vals, get(f))
		}
	}
	return vals
}

// percentileThreshold computes the pct-th percentile of a feature over s.
func (a *Analysis) percentileThreshold(s HostSet, pct float64, get func(*flow.HostFeatures) float64) (float64, error) {
	vals := a.featureValues(s, get)
	if len(vals) == 0 {
		return 0, fmt.Errorf("core: no hosts to compute threshold over")
	}
	return stats.Percentile(vals, pct)
}
