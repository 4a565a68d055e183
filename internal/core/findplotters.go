package core

import (
	"fmt"

	"plotters/internal/flow"
)

// Result is the full outcome of FindPlotters, exposing every intermediate
// stage so callers can reproduce the paper's stage-by-stage refinement
// figures.
type Result struct {
	// Analysis gives access to the extracted per-host features.
	Analysis *Analysis
	// Reduction is the initial data-reduction outcome; its Kept set is
	// the paper's input set S.
	Reduction Reduction
	// Volume is θ_vol applied to S.
	Volume TestResult
	// Churn is θ_churn applied to S.
	Churn TestResult
	// HM is θ_hm applied to S_vol ∪ S_churn.
	HM HMResult
	// Suspects is the final output, S_hm.
	Suspects HostSet
}

// FindPlotters runs the complete pipeline of Figure 4 over one detection
// window: initial reduction, θ_vol and θ_churn over the reduced set, and
// θ_hm over the union of their survivors. internal selects monitored
// addresses (nil = every initiator).
func FindPlotters(records []flow.Record, internal func(flow.IP) bool, cfg Config) (*Result, error) {
	analysis, err := NewAnalysis(records, internal, cfg)
	if err != nil {
		return nil, err
	}
	return analysis.FindPlotters()
}

// FindPlotters runs the pipeline over an existing analysis: initial
// reduction, θ_vol and θ_churn over the reduced set, then θ_hm over the
// union of their survivors. When cfg.Metrics is set, each stage's wall
// time lands under the "pipeline/..." stages and each filter's survivor
// count under the "pipeline/hosts/..." gauges.
func (a *Analysis) FindPlotters() (*Result, error) {
	reg := a.cfg.Metrics
	total := reg.StartStage("pipeline")
	reg.Gauge("pipeline/hosts/analyzed").Set(int64(len(a.feats)))

	t := total.Child("reduction")
	red, err := a.Reduce()
	if err != nil {
		return nil, fmt.Errorf("core: reduction: %w", err)
	}
	t.Stop()
	reg.Gauge("pipeline/hosts/reduction").Set(int64(len(red.Kept)))

	t = total.Child("vol")
	vol, err := a.VolumeTest(red.Kept, a.cfg.VolPercentile)
	if err != nil {
		return nil, fmt.Errorf("core: vol: %w", err)
	}
	t.Stop()
	reg.Gauge("pipeline/hosts/vol").Set(int64(len(vol.Kept)))

	t = total.Child("churn")
	churn, err := a.ChurnTest(red.Kept, a.cfg.ChurnPercentile)
	if err != nil {
		return nil, fmt.Errorf("core: churn: %w", err)
	}
	t.Stop()
	reg.Gauge("pipeline/hosts/churn").Set(int64(len(churn.Kept)))

	union := vol.Kept.Union(churn.Kept)
	reg.Gauge("pipeline/hosts/union").Set(int64(len(union)))
	t = total.Child("hm")
	hmRes, err := a.HMTest(union, a.cfg.HMPercentile)
	if err != nil {
		return nil, fmt.Errorf("core: hm: %w", err)
	}
	t.Stop()
	reg.Gauge("pipeline/hosts/suspects").Set(int64(len(hmRes.Kept)))
	total.Stop()

	return &Result{
		Analysis:  a,
		Reduction: red,
		Volume:    vol,
		Churn:     churn,
		HM:        hmRes,
		Suspects:  hmRes.Kept,
	}, nil
}
