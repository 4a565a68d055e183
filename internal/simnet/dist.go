package simnet

import (
	"math"
	"math/rand"
	"time"
)

// The traffic generators draw from a small set of heavy-tailed and
// exponential distributions: file sizes and flow sizes are log-normal,
// human think times are Pareto (bursty, long-tailed), and protocol timers
// are exponential around their nominal period. These helpers centralize
// the sampling so every generator treats its RNG identically.

// LogNormal samples exp(N(mu, sigma²)). mu and sigma are the parameters
// of the underlying normal, i.e. the median of the result is exp(mu).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// LogNormalMedian samples a log-normal with the given median and sigma of
// the underlying normal — a friendlier parameterization for generator
// configs ("median flow size 200 bytes, spread 0.8").
func LogNormalMedian(rng *rand.Rand, median, sigma float64) float64 {
	return LogNormal(rng, math.Log(median), sigma)
}

// Pareto samples a Pareto distribution with scale xm > 0 and shape
// alpha > 0. Human inter-action ("think") times are well modeled by
// Pareto tails.
func Pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Exp samples an exponential with the given mean.
func Exp(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// ExpDur samples an exponential duration with the given mean.
func ExpDur(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// UniformDur samples uniformly in [lo, hi).
func UniformDur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

// Jitter returns d scaled by a uniform factor in [1−frac, 1+frac] — the
// small timer wobble real protocol stacks exhibit.
func Jitter(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	scale := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * scale)
}

// Bernoulli reports true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}
