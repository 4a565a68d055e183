// Package histogram implements the non-parametric density approximation
// used by the θ_hm (human- vs. machine-driven) test: histograms whose bin
// width follows the Freedman–Diaconis rule,
//
//	b = 2 · IQR(v) · |v|^(−1/3),
//
// which minimizes the mean-squared error between the histogram and the
// true distribution (Freedman & Diaconis, 1981). The paper builds one
// histogram per host from its per-destination flow interstitial times and
// compares hosts with the Earth Mover's Distance; see package emd.
package histogram

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"plotters/internal/stats"
)

// DefaultMaxBins caps the number of bins in a histogram. Interstitial
// times can span seconds to hours, so an unbounded FD binning of a wide,
// tight-IQR sample could produce millions of bins; the cap bounds both
// memory and the EMD computation downstream. 512 bins at FD width covers
// every sample in our evaluation without truncation.
const DefaultMaxBins = 512

// ErrNoSamples is returned when a histogram is requested for an empty
// sample.
var ErrNoSamples = errors.New("histogram: no samples")

// Histogram is a normalized (unit-mass) histogram over a contiguous range
// [Min, Min+Width·len(Mass)).
type Histogram struct {
	// Min is the left edge of the first bin.
	Min float64
	// Width is the common bin width. Always > 0.
	Width float64
	// Mass holds the normalized per-bin probability mass; it sums to 1.
	Mass []float64
	// N is the number of samples the histogram was built from.
	N int
}

// FDBinWidth returns the Freedman–Diaconis bin width for the sample:
// 2·IQR·n^(−1/3). The width is 0 when the IQR is 0 (at least half the
// sample is a single repeated value) — callers fall back to a degenerate
// single-bin histogram in that case.
func FDBinWidth(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	iqr, err := stats.IQR(samples)
	if err != nil {
		return 0, fmt.Errorf("histogram: computing IQR: %w", err)
	}
	return 2 * iqr * math.Pow(float64(len(samples)), -1.0/3.0), nil
}

// Build constructs a normalized histogram of samples using the
// Freedman–Diaconis bin width, capped at maxBins bins (DefaultMaxBins if
// maxBins <= 0). Samples must be finite; non-finite values are an error.
func Build(samples []float64, maxBins int) (*Histogram, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("histogram: non-finite sample %v", s)
		}
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]

	width, err := FDBinWidth(sorted)
	if err != nil {
		return nil, err
	}
	span := hi - lo
	if width <= 0 || span == 0 {
		// Degenerate spread: all mass lands in one bin. Use a nominal
		// width of 1 so bin-center geometry stays well defined.
		return &Histogram{Min: lo, Width: 1, Mass: []float64{1}, N: len(sorted)}, nil
	}
	bins := int(math.Ceil(span / width))
	if bins < 1 {
		bins = 1
	}
	if bins > maxBins {
		bins = maxBins
		width = span / float64(bins)
	}

	mass := make([]float64, bins)
	unit := 1 / float64(len(sorted))
	for _, s := range sorted {
		idx := int((s - lo) / width)
		if idx >= bins { // s == hi lands exactly on the right edge
			idx = bins - 1
		}
		mass[idx] += unit
	}
	return &Histogram{Min: lo, Width: width, Mass: mass, N: len(sorted)}, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Mass) }

// Center returns the center coordinate of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.Width
}

// Signature converts the histogram to the sparse (position, weight) form
// consumed by the EMD solver, dropping empty bins.
func (h *Histogram) Signature() (positions, weights []float64) {
	for i, m := range h.Mass {
		if m == 0 {
			continue
		}
		positions = append(positions, h.Center(i))
		weights = append(weights, m)
	}
	return positions, weights
}

func (h *Histogram) String() string {
	return fmt.Sprintf("histogram{min=%.4g width=%.4g bins=%d n=%d}", h.Min, h.Width, len(h.Mass), h.N)
}
