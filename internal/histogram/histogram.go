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
	"math/bits"
	"slices"
)

// MaxBins caps the number of bins in a histogram, and so the length of
// every θ_hm sketch a shard sends. Interstitial times can span seconds
// to hours, so an unbounded FD binning of a wide, tight-IQR sample could
// produce millions of bins; the cap bounds both memory and the EMD
// computation downstream.
const MaxBins = 256

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
// single-bin histogram in that case. The sample is not modified.
func FDBinWidth(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	return fdWidth(slices.Clone(samples)), nil
}

// fdWidth is FDBinWidth over a non-empty sample it may reorder.
func fdWidth(work []float64) float64 {
	q1, at := quantile(work, 0, 0.25)
	q3, _ := quantile(work, at, 0.75)
	return 2 * (q3 - q1) * math.Pow(float64(len(work)), -1.0/3.0)
}

// Build constructs a normalized histogram of samples using the
// Freedman–Diaconis bin width, capped at MaxBins bins. Samples must be
// finite; non-finite values are an error, and so is a range wider than
// the largest float64. The sample is not modified.
func Build(samples []float64) (*Histogram, error) {
	h, err := BuildInPlace(slices.Clone(samples), nil)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// BuildInPlace is Build over a sample the caller owns and lets it
// reorder, binning into mass (grown as needed, its contents ignored).
// The result's Mass shares mass's backing array when it fits, so a caller
// that passes the previous result's Mass back in allocates nothing. It
// takes three passes and no sort: one for the range, selection for the
// two quartiles, one to bin.
func BuildInPlace(work, mass []float64) (Histogram, error) {
	n := len(work)
	if n == 0 {
		return Histogram{}, ErrNoSamples
	}
	lo, hi := work[0], work[0]
	for _, s := range work {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return Histogram{}, fmt.Errorf("histogram: non-finite sample %v", s)
		}
		lo, hi = min(lo, s), max(hi, s)
	}
	span := hi - lo
	if math.IsInf(span, 0) {
		return Histogram{}, fmt.Errorf("histogram: sample range [%v, %v] is wider than a float64", lo, hi)
	}

	width := fdWidth(work)
	if width <= 0 || span == 0 {
		// Degenerate spread: all mass lands in one bin. Use a nominal
		// width of 1 so bin-center geometry stays well defined.
		return Histogram{Min: lo, Width: 1, Mass: append(mass[:0], 1), N: n}, nil
	}
	// The ratio is compared as a float64: past the int range its
	// conversion is undefined.
	bins := MaxBins
	if r := math.Ceil(span / width); r > MaxBins {
		width = span / float64(bins)
	} else {
		bins = max(int(r), 1)
	}

	mass = slices.Grow(mass[:0], bins)[:bins]
	clear(mass)
	// Every increment is the same unit, so a bin's mass depends only on
	// how many samples land in it, not on the order they are visited in.
	unit := 1 / float64(n)
	for _, s := range work {
		idx := int((s - lo) / width)
		if idx >= bins { // s == hi lands exactly on the right edge
			idx = bins - 1
		}
		mass[idx] += unit
	}
	return Histogram{Min: lo, Width: width, Mass: mass, N: n}, nil
}

// quantile returns the type-7 q-quantile of xs exactly as stats.Quantile
// computes it — linear interpolation between the order statistics at
// ⌊q·(n−1)⌋ and ⌈q·(n−1)⌉ — by selection in place. xs[from:] must hold
// the len(xs)−from largest values (from = 0 always qualifies); the
// returned index is the lower order statistic's, which qualifies as from
// for any larger q.
func quantile(xs []float64, from int, q float64) (float64, int) {
	if len(xs) == 1 {
		return xs[0], 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectK(xs[from:], lo-from)
	if lo == hi {
		return xs[lo], lo
	}
	// Selection left nothing smaller than xs[lo] after it, so the next
	// order statistic is the smallest value there.
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + slices.Min(xs[lo+1:])*frac, lo
}

// selectK reorders xs so that xs[k] holds the value sorting would put
// there, with nothing larger before it and nothing smaller after it.
// Quickselect: median-of-three pivots and a three-way partition, so a run
// of equal values is settled in one step. A range still open after about
// 2·log₂ n partitions is sorted instead, which bounds the worst case at
// O(n log n); expected time is linear.
func selectK(xs []float64, k int) {
	lo, hi := 0, len(xs) // xs[k]'s value lies in xs[lo:hi]
	for depth := 2 * bits.Len(uint(len(xs))); hi-lo > 1; depth-- {
		if depth == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Invariant: xs[lo:lt] < p, xs[lt:i] == p, xs[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[i], xs[gt] = xs[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	return max(min(a, b), min(max(a, b), c))
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
	nonEmpty := 0
	for _, m := range h.Mass {
		if m != 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return nil, nil
	}
	positions = make([]float64, 0, nonEmpty)
	weights = make([]float64, 0, nonEmpty)
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
