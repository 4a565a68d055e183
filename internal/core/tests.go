package core

import (
	"fmt"

	"plotters/internal/flow"
)

// Reduction is the outcome of the initial data-reduction step (§V-A).
type Reduction struct {
	// Kept holds the "possibly P2P" hosts: failed-connection rate above
	// the threshold.
	Kept HostSet
	// Threshold is the failed-connection-rate cutoff used (the median
	// across eligible hosts).
	Threshold float64
	// Eligible counts hosts that initiated at least one successful flow
	// (the population the median is computed over, per the paper).
	Eligible int
}

// Reduce performs the initial data reduction: among hosts that initiated
// at least one successful connection, keep those whose failed-connection
// rate exceeds the median. This discards roughly half the population —
// the hosts unlikely to be running any P2P application — while retaining
// Traders and Plotters, whose churn-driven failure rates are high.
func (a *Analysis) Reduce() (Reduction, error) {
	eligible := make(HostSet)
	for h, f := range a.feats {
		if f.SuccessfulFlows() > 0 {
			eligible[h] = true
		}
	}
	if len(eligible) == 0 {
		return Reduction{}, fmt.Errorf("core: no hosts with successful flows in window")
	}
	threshold, err := a.percentileThreshold(eligible, 50, (*flow.HostFeatures).FailedRate)
	if err != nil {
		return Reduction{}, err
	}
	kept := make(HostSet)
	for h := range eligible {
		if a.feats[h].FailedRate() > threshold {
			kept[h] = true
		}
	}
	return Reduction{Kept: kept, Threshold: threshold, Eligible: len(eligible)}, nil
}

// TestResult is the outcome of θ_vol or θ_churn: the surviving hosts and
// the dynamically computed threshold.
type TestResult struct {
	Kept      HostSet
	Threshold float64
}

// VolumeTest is θ_vol (§IV-A): τ_vol is the pct-th percentile of average
// uploaded bytes per flow across the input hosts; hosts *below* τ_vol
// survive (Plotters send little data per flow, Traders move media files).
func (a *Analysis) VolumeTest(s HostSet, pct float64) (TestResult, error) {
	if len(s) == 0 {
		return TestResult{Kept: HostSet{}}, nil
	}
	threshold, err := a.percentileThreshold(s, pct, (*flow.HostFeatures).AvgBytesPerFlow)
	if err != nil {
		return TestResult{}, fmt.Errorf("core: volume test: %w", err)
	}
	kept := make(HostSet)
	for h := range s {
		f, ok := a.feats[h]
		if ok && f.AvgBytesPerFlow() < threshold {
			kept[h] = true
		}
	}
	return TestResult{Kept: kept, Threshold: threshold}, nil
}

// ChurnTest is θ_churn (§IV-B): τ_churn is the pct-th percentile of the
// new-peer fraction (destination IPs first contacted after the host's
// first hour of activity, over all destination IPs) across the input
// hosts; hosts *below* τ_churn survive (Plotters re-contact a stored peer
// list, Traders chase content across ever-new peers).
func (a *Analysis) ChurnTest(s HostSet, pct float64) (TestResult, error) {
	if len(s) == 0 {
		return TestResult{Kept: HostSet{}}, nil
	}
	threshold, err := a.percentileThreshold(s, pct, (*flow.HostFeatures).NewPeerFraction)
	if err != nil {
		return TestResult{}, fmt.Errorf("core: churn test: %w", err)
	}
	kept := make(HostSet)
	for h := range s {
		f, ok := a.feats[h]
		if ok && f.NewPeerFraction() < threshold {
			kept[h] = true
		}
	}
	return TestResult{Kept: kept, Threshold: threshold}, nil
}
