// Package emd implements the Earth Mover's Distance (Rubner, Tomasi &
// Guibas, 1998) used by the θ_hm test to compare per-host interstitial
// time distributions.
//
// EMD is the minimum-cost solution of the classic transportation problem
// (Dantzig, 1951): move the probability mass of one distribution onto the
// other at per-unit cost equal to the ground distance between bin
// positions. Interstitial times are scalar, so the package ships the exact
// O(m+n) closed form for one-dimensional signatures with |·| ground
// distance — Signature.Distance, the integral of the absolute difference
// of the two CDFs. The general transportation-simplex solver it is
// cross-validated against lives in transport_test.go, as the tests'
// oracle.
//
// A "signature" is a pair of parallel slices: positions and non-negative
// weights. Distances are defined for equal total mass; the package
// normalizes both signatures to unit mass, matching the paper's
// normalized histograms.
package emd

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrEmptySignature is returned when a signature has no mass.
var ErrEmptySignature = errors.New("emd: empty signature")

// Signature is a validated, sorted, unit-mass 1-D signature prepared for
// repeated distance queries: the θ_hm pairwise matrix compares each host
// against every other, so each side is validated, sorted and normalized
// once and the per-pair comparison is allocation-free.
type Signature struct {
	sig signature
}

// NewSignature validates and prepares a signature: positions are sorted,
// duplicate positions coalesced, zero weights dropped, and weights
// normalized to unit mass. The inputs are copied; the caller may reuse
// them.
func NewSignature(pos, w []float64) (*Signature, error) {
	s, err := newSignature(pos, w)
	if err != nil {
		return nil, fmt.Errorf("emd: %w", err)
	}
	return &Signature{sig: s}, nil
}

// Len returns the number of distinct mass-bearing positions.
func (s *Signature) Len() int { return len(s.sig.pos) }

// Distance returns the 1-D EMD between two prepared signatures. It
// performs no validation or allocation and is safe for concurrent use:
// prepared signatures are immutable.
func (s *Signature) Distance(t *Signature) float64 {
	return distance1D(s.sig, t.sig)
}

type signature struct {
	pos []float64 // sorted ascending
	w   []float64 // normalized to sum 1, parallel to pos
}

func newSignature(pos, w []float64) (signature, error) {
	if len(pos) != len(w) {
		return signature{}, fmt.Errorf("positions (%d) and weights (%d) length mismatch", len(pos), len(w))
	}
	var total float64
	for i, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return signature{}, fmt.Errorf("invalid weight %v at %d", x, i)
		}
		if math.IsNaN(pos[i]) || math.IsInf(pos[i], 0) {
			return signature{}, fmt.Errorf("invalid position %v at %d", pos[i], i)
		}
		total += x
	}
	if total <= 0 {
		return signature{}, ErrEmptySignature
	}
	idx := make([]int, len(pos))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(pos[a], pos[b]) })
	s := signature{pos: make([]float64, 0, len(pos)), w: make([]float64, 0, len(w))}
	for _, i := range idx {
		if w[i] == 0 {
			continue
		}
		// Coalesce duplicate positions so downstream merges stay simple.
		if n := len(s.pos); n > 0 && s.pos[n-1] == pos[i] {
			s.w[n-1] += w[i] / total
			continue
		}
		s.pos = append(s.pos, pos[i])
		s.w = append(s.w, w[i]/total)
	}
	return s, nil
}

// distance1D integrates |CDF1(t) − CDF2(t)| dt across the merged support.
// For unit-mass 1-D distributions this equals the optimal transport cost.
// newSignature coalesces duplicate positions, so each side advances at
// most once per tick; the first term is |0 − 0|·tick, which adds +0.
func distance1D(a, b signature) float64 {
	var total, cdfA, cdfB, prev float64
	i, j := 0, 0
	for i < len(a.pos) && j < len(b.pos) {
		x, y := a.pos[i], b.pos[j]
		tick := y
		if x <= y {
			tick = x
		}
		total += math.Abs(cdfA-cdfB) * (tick - prev)
		if x == tick {
			cdfA += a.w[i]
			i++
		}
		if y == tick {
			cdfB += b.w[j]
			j++
		}
		prev = tick
	}
	// One side is exhausted: the other's remaining positions are the
	// ticks.
	for ; i < len(a.pos); i++ {
		total += math.Abs(cdfA-cdfB) * (a.pos[i] - prev)
		cdfA += a.w[i]
		prev = a.pos[i]
	}
	for ; j < len(b.pos); j++ {
		total += math.Abs(cdfA-cdfB) * (b.pos[j] - prev)
		cdfB += b.w[j]
		prev = b.pos[j]
	}
	return total
}
