// Package stats provides the descriptive statistics used throughout the
// detection pipeline: quantiles, medians, inter-quartile ranges, and
// empirical CDFs.
//
// The pipeline's thresholds are all percentiles of observed per-host
// features (the paper sets τ_vol and τ_churn to percentiles of the host
// population, and τ_hm to a percentile of cluster diameters), so quantile
// computation is on the hot path of every test.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7 estimator, the default in
// R and NumPy). The input need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs.
func Percentile(xs []float64, p float64) (float64, error) {
	return Quantile(xs, p/100)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// IQR returns the inter-quartile range (Q3 - Q1) of xs. It is the spread
// measure in the Freedman–Diaconis bin-width rule used by the θ_hm test.
func IQR(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	q1 := quantileSorted(sorted, 0.25)
	q3 := quantileSorted(sorted, 0.75)
	return q3 - q1, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance of xs. A single-element
// sample has variance 0.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
	Q1     float64
	Q3     float64
}

// Summarize computes a Summary of xs in one pass over a sorted copy.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mean, _ := Mean(sorted)
	sd, _ := StdDev(sorted)
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Median: quantileSorted(sorted, 0.5),
		StdDev: sd,
		Q1:     quantileSorted(sorted, 0.25),
		Q3:     quantileSorted(sorted, 0.75),
	}, nil
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g mean=%.4g q3=%.4g max=%.4g sd=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Mean, s.Q3, s.Max, s.StdDev)
}
