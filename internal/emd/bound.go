package emd

// The mean bound: a cheap, admissible lower bound on the 1-D EMD (see
// Mean) that indexes the θ_hm sparse fill, and the support and rounding
// margin a caller needs to keep it admissible in floating point.

// Support returns the smallest and largest mass-bearing positions of a
// prepared signature. A valid signature always has at least one
// position.
func (s *Signature) Support() (lo, hi float64) {
	return s.sig.pos[0], s.sig.pos[len(s.sig.pos)-1]
}

// Mean returns the signature's first moment Σ w·pos. It is the 1-D index
// key of the θ_hm sparse fill: EMD = ∫|F−G| ≥ |∫(F−G)| = |μ_F−μ_G|, so
// two signatures whose means differ by more than a cut are provably
// further apart than the cut. Sorting hosts by mean turns "every pair"
// into "every pair inside a sliding band".
func (s *Signature) Mean() float64 {
	var m float64
	for i, x := range s.sig.pos {
		m += s.sig.w[i] * x
	}
	return m
}

// MeanSlack is the absolute rounding margin of the mean bound for
// signatures of at most bins positions of magnitude at most maxAbs:
// |Mean(a)−Mean(b)| ≤ Distance(a, b) + MeanSlack. Each mean is a sum of
// bins products no larger than maxAbs, the exact distance integrates
// about 2·bins strips of the same scale by a different summation, and
// the two stored weight vectors each sum to 1 only to within bins ulps —
// every term is a small multiple of bins·maxAbs·2⁻⁵³, and 16 of them
// cover all three with room. The margin is absolute because the bound
// must also hold when the cut it is compared against is tiny.
func MeanSlack(bins int, maxAbs float64) float64 {
	return 16 * float64(bins) * maxAbs * 0x1p-53
}
