package emd

// Coarsened-CDF signatures: a cheap, admissible lower bound on the 1-D
// EMD used to prune the θ_hm pairwise matrix.
//
// The exact distance integrates |F_a − F_b| over the merged support. Partition
// [lo, hi] into G equal cells; for any cell C,
//
//	∫_C |F_a − F_b| dt  ≥  |∫_C F_a dt − ∫_C F_b dt|
//
// so precomputing the per-host vector of exact cell integrals
// A_t = ∫_{C_t} F(t) dt turns Σ_t |A_t − B_t| into a lower bound on the
// EMD restricted to [lo, hi]. When [lo, hi] covers every signature's
// support the restriction is the whole integral — below lo both CDFs are
// 0, above hi both are 1 — so the bound is admissible for the full
// distance. It is exact in the limit G → ∞ and already tight enough at a
// few dozen cells to discard the vast majority of above-cut pairs.
//
// The payoff is shape: the per-host precomputation is O(m + G) once, and
// the per-pair bound is an L1 distance between two fixed-length flat
// float64 vectors, a branch-free loop. It can beat the exact merge-scan
// only on a pair holding more than G positions between them, so θ_hm
// builds none where every signature holds at most G/2.

// CDFSignature is a host's coarsened-CDF signature over a shared grid:
// vals[t] is the exact integral of the signature's CDF over grid cell t.
// Signatures are only comparable when built over the identical grid
// (same lo, hi, and cell count).
type CDFSignature struct {
	vals []float64
}

// Cells returns the number of grid cells.
func (c *CDFSignature) Cells() int { return len(c.vals) }

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

// CDFSignature builds the coarsened-CDF signature of s over the grid of
// `cells` equal cells spanning [lo, hi]. For the resulting pairwise
// bound to be admissible, [lo, hi] must cover the support of every
// signature that will be compared (use the global min/max over all
// hosts' Support). A degenerate grid (hi <= lo or cells <= 0) yields a
// zero-cell signature whose bound is 0 — always admissible, never
// prunes.
func (s *Signature) CDFSignature(lo, hi float64, cells int) *CDFSignature {
	if cells <= 0 || hi <= lo {
		return &CDFSignature{}
	}
	vals := make([]float64, cells)
	pos, w := s.sig.pos, s.sig.w
	var cdf float64
	k := 0
	span := hi - lo
	b := lo
	for t := 0; t < cells; t++ {
		a := b
		// Computing each edge from the span (rather than accumulating a
		// width) keeps the final edge exactly hi.
		if t == cells-1 {
			b = hi
		} else {
			b = lo + span*float64(t+1)/float64(cells)
		}
		// Exact integral of the right-continuous step CDF over [a, b):
		// positions inside the cell split it into constant segments. A
		// jump exactly at b has zero measure here and lands in the next
		// cell's update loop.
		prev := a
		var acc float64
		for k < len(pos) && pos[k] < b {
			if pos[k] > prev {
				acc += cdf * (pos[k] - prev)
				prev = pos[k]
			}
			cdf += w[k]
			k++
		}
		acc += cdf * (b - prev)
		vals[t] = acc
	}
	return &CDFSignature{vals: vals}
}

// LowerBoundAtLeast accumulates Σ_t |a_t − b_t| — an admissible lower
// bound on the exact 1-D EMD between the two underlying signatures,
// provided both coarse signatures were built over the same grid and that
// grid spans both supports — and stops as soon as the partial sum
// exceeds stop. Every prefix of the full sum is itself an admissible
// lower bound (each dropped term is non-negative; mismatched cell counts
// compare only the shared prefix for the same reason), so the returned
// value is always a true lower bound on the exact EMD — just no tighter
// than stop requires.
// With a stop just above the pruning cut, far pairs exit after the few
// cells where their CDFs first diverge, which matters when the exact
// evaluation being avoided is only a small multiple of a full bound
// scan.
func LowerBoundAtLeast(a, b *CDFSignature, stop float64) float64 {
	av, bv := a.vals, b.vals
	if len(bv) < len(av) {
		av, bv = bv, av
	}
	bv = bv[:len(av)]
	var sum float64
	for i, x := range av {
		d := x - bv[i]
		if d < 0 {
			d = -d
		}
		sum += d
		if sum > stop {
			return sum
		}
	}
	return sum
}
