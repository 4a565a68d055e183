// Package distmatrix computes symmetric pairwise distance matrices in
// parallel. It exists because the θ_hm test's Earth Mover's Distance
// matrix is the FindPlotters pipeline's dominant cost — O(n²) EMD
// evaluations over per-host histograms before any clustering happens —
// and that work is embarrassingly parallel: every pair is independent.
//
// There is one kernel. The upper triangle is sharded into row blocks
// handed to a worker pool bounded by runtime.NumCPU. Row blocks (rather
// than individual pairs or interleaved rows) keep each worker walking
// contiguous memory in the flat backing array and reusing its row item
// against a streak of partners, which is what the cache wants. Because
// row i holds n-1-i pairs, blocks are balanced by pair count, not row
// count: early rows travel in smaller blocks than late rows. A single
// worker runs the same loop inline — small inputs (below
// DefaultSequentialCutoff) always do, because goroutine startup costs
// more than the matrix for tiny n.
//
// With Options.Cut > 0 the same loop prunes. Exact distances only matter
// below the cut — the θ_hm agglomerative clustering this package serves
// never merges across the cut, so any pair provably above it can be
// stored as Sentinel without computing it. Layers, cheapest first:
//
//  1. prefilter — Options.Bound, an admissible lower bound (for θ_hm, the
//     coarsened-CDF L1 distance from internal/emd). One branch-free pass
//     per row discards the bulk of above-cut pairs.
//  2. pivot triangle pruning — exact distances from every item to k
//     pivots (deterministic farthest-point selection) give the metric
//     lower bound max_p |d(i,p) − d(j,p)| for pairs the prefilter let
//     through.
//  3. exact evaluation — survivors get the real DistFunc call; values
//     above the cut are still stored as Sentinel (the gate).
//
// With Cut == 0 there is no gate and no layer: every column of every row
// survives to the exact pass.
//
// The invariant all equivalence tests pin: the finished matrix is a pure
// function of the exact distances and the cut. Each cell is written
// exactly once, from dist(i, j) alone, so the result is bit-identical at
// every worker count by construction; pruning layers decide how many
// exact evaluations are spent producing it, never what it contains.
//
// Compute has no error path and takes no context, on purpose. A
// DistFunc is a pure comparison of two already-validated items (θ_hm
// validates every host's signature before the matrix, and clustering
// rejects NaN or negative distances after it), so there is nothing for
// a pair to fail on; and the only caller runs the matrix to completion
// inside one detection window, so there is nobody to cancel it.
package distmatrix

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plotters/internal/metrics"
)

// DistFunc reports the distance between items i and j (i < j). It must
// be safe for concurrent calls from multiple goroutines.
type DistFunc func(i, j int) float64

// BoundFunc reports a lower bound on the distance between items i and j
// (i < j): Bound(i, j) <= dist(i, j) up to float rounding. It must be
// cheap relative to DistFunc and safe for concurrent calls.
type BoundFunc func(i, j int) float64

// Sentinel is the matrix value stored for a pair whose distance provably
// exceeds Options.Cut. +Inf is deliberate: average-linkage clustering
// arithmetic absorbs it (any cluster pair containing a sentinel member
// pair averages to +Inf), which is exactly the "never merged below the
// cut" semantics the θ_hm pruning contract needs.
var Sentinel = math.Inf(1)

// IsSentinel reports whether a matrix value is the above-cut sentinel.
func IsSentinel(v float64) bool { return math.IsInf(v, 1) }

// Matrix is a symmetric n×n distance matrix over a flat backing slice
// (row-major), with a zero diagonal. The flat layout halves the pointer
// chasing of a [][]float64 and lets one allocation serve the whole
// matrix.
type Matrix struct {
	n    int
	data []float64
}

// New returns a zero n×n matrix.
func New(n int) *Matrix {
	if n < 0 {
		n = 0
	}
	return &Matrix{n: n, data: make([]float64, n*n)}
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// At returns the distance between items i and j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// set writes both symmetric cells.
func (m *Matrix) set(i, j int, v float64) {
	m.data[i*m.n+j] = v
	m.data[j*m.n+i] = v
}

// DistFunc adapts the matrix to the func(i, j int) float64 shape the
// cluster package consumes.
func (m *Matrix) DistFunc() func(i, j int) float64 {
	return m.At
}

// Options tunes Compute. The zero value asks for full parallelism and an
// exhaustive (ungated, unpruned) fill.
type Options struct {
	// Parallelism bounds the worker pool: 0 (or negative) means
	// runtime.NumCPU(), 1 runs the fill inline on the caller's
	// goroutine. Explicit values above NumCPU are honored — the workload
	// is CPU-bound so they rarely help, but they keep the pool testable
	// on single-core machines.
	Parallelism int
	// Metrics, when non-nil, receives the computation's statistics:
	// the "distmatrix/pairs" counter (distance evaluations performed),
	// the "distmatrix/workers" gauge (effective pool size), and the
	// "distmatrix/worker_busy" histogram (each worker's busy wall time,
	// whose spread exposes load imbalance). With Cut > 0 it additionally
	// receives the "distmatrix/pairs_total",
	// "distmatrix/pairs_pruned_bound", "distmatrix/pairs_pruned_pivot",
	// and "distmatrix/pairs_gated" counters — pairs_total =
	// pairs_pruned_bound + pairs_pruned_pivot + pairs, pivot-phase rows
	// included — the per-worker "distmatrix/prefilter_busy" /
	// "distmatrix/exact_busy" histograms (time split between the cheap
	// bound passes and the exact distance evaluations), and a
	// "distmatrix/pivots" stage timer around pivot selection. Recording
	// happens per worker lifetime, never per pair, so the hot loops are
	// untouched.
	Metrics *metrics.Registry

	// Cut, when positive, enables gating: every pair whose distance
	// exceeds Cut is stored as Sentinel instead of its exact value. The
	// gated matrix is a pure function of the exact distances and Cut —
	// Bound and Pivots change how many exact evaluations are needed to
	// produce it, never its contents. Zero (the default) disables
	// gating and pruning entirely.
	Cut float64
	// Bound, when non-nil (and Cut > 0), is the prefilter: a pair whose
	// lower bound already exceeds Cut skips its exact evaluation and is
	// stored as Sentinel directly. Admissibility (Bound <= dist) is the
	// caller's contract; a small relative slack absorbs float rounding
	// between the two computations.
	Bound BoundFunc
	// Pivots, when positive (and Cut > 0), layers triangle-inequality
	// pruning behind the prefilter: the fill computes exact distances
	// from every item to Pivots pivot items (chosen by deterministic
	// farthest-point selection), and |d(i,p) − d(j,p)| lower-bounds
	// d(i,j) for any metric distance. Only meaningful when dist is a
	// metric — 1-D EMD is.
	Pivots int
}

// boundSlack is the relative margin added to Cut before comparing lower
// bounds against it: a bound computed by a different float summation than
// the exact distance can exceed it by a few ulps on near-equal pairs, and
// a false prune there would break the gated-matrix invariant. The exact
// value's own gate comparison uses Cut unmodified.
const boundSlack = 1e-9

// DefaultSequentialCutoff is the n below which the worker pool is not
// worth its startup cost: a 48×48 matrix is ~1.1k pairs, on the order of
// the cost of spinning up and tearing down the pool itself.
const DefaultSequentialCutoff = 48

// minBlockPairs floors the row-block size so a small matrix is not
// chopped into blocks cheaper than the cursor claim that hands them out.
const minBlockPairs = 256

// workers resolves the effective worker count for an n×n matrix.
func (o Options) workers(n int) int {
	if n < DefaultSequentialCutoff {
		return 1
	}
	if o.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallelism
}

// Compute fills a symmetric n×n matrix from dist. See the package
// comment for the parallel execution and determinism guarantees.
func Compute(n int, dist DistFunc, opts Options) *Matrix {
	m := New(n)
	if n < 2 {
		return m
	}
	workers := opts.workers(n)
	opts.Metrics.Gauge("distmatrix/workers").Set(int64(workers))
	f := &fill{m: m, dist: dist, reg: opts.Metrics}
	// ~8 blocks per worker balances the tail without cursor thrash.
	f.blockPairs = max(n*(n-1)/2/(workers*8), minBlockPairs)
	if opts.Cut > 0 {
		f.cut = opts.Cut
		f.threshold = opts.Cut * (1 + boundSlack)
		f.bound = opts.Bound
		if k := min(opts.Pivots, n); k > 0 {
			t := f.reg.StartStage("distmatrix/pivots")
			f.selectPivots(k)
			t.Stop()
		}
	}
	if workers == 1 {
		f.work()
		return m
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			f.work()
		}()
	}
	wg.Wait()
	return m
}

// fill holds the shared state of one matrix fill.
type fill struct {
	m    *Matrix
	dist DistFunc
	reg  *metrics.Registry
	// cursor is the next unclaimed row; blockPairs the pair count a
	// claimed block of rows aims for.
	cursor     atomic.Int64
	blockPairs int
	// cut gates stored values; threshold (cut plus relative slack) gates
	// lower bounds, absorbing float rounding between bound and exact.
	// Both are zero, and bound and the pivot tables nil, on an ungated
	// fill.
	cut       float64
	threshold float64
	bound     BoundFunc
	// pivotSlot[i] >= 0 marks item i as pivot #pivotSlot[i]; pivotD[t][j]
	// is the exact distance from pivot t to item j. Pivot rows are fully
	// written into the matrix during selection, so the main fill skips
	// any pair touching a pivot.
	pivotSlot []int32
	pivotD    [][]float64
}

// tally is one worker's scratch and local counts, flushed once at worker
// exit so the per-pair loops carry no metrics calls.
type tally struct {
	surv []int32 // columns of the current row needing exact evaluation

	total, prunedBound, prunedPivot, exact, gated int64

	boundDur, exactDur time.Duration
}

// work is the kernel: claim row blocks off the shared cursor until the
// triangle is exhausted, and for each row run the pruning layers (none
// on an ungated fill) and then the exact pass over the survivors.
//
// Work distribution: an atomic row cursor hands out blocks of
// consecutive rows. The block size for a grab starting at row r is
// chosen so each block holds roughly blockPairs pairs — rows near the
// top of the triangle are long, rows near the bottom short, so blocks
// grow as the cursor descends. Grabbing blocks (not single rows) keeps
// the cursor contention negligible; sizing them by pair count keeps the
// tail balanced.
func (f *fill) work() {
	n := f.m.n
	st := &tally{surv: make([]int32, 0, n)}
	start := time.Now()
	defer func() { f.flush(st, start) }()
	// The layer/exact time split is only reported for a gated fill.
	timed := f.reg != nil && f.cut > 0
	for {
		// Claim a row block sized to ~blockPairs pairs.
		lo := int(f.cursor.Load())
		var hi int
		for {
			if lo >= n-1 {
				return
			}
			hi = lo
			for pairs := 0; hi < n-1 && pairs < f.blockPairs; hi++ {
				pairs += n - 1 - hi
			}
			if f.cursor.CompareAndSwap(int64(lo), int64(hi)) {
				break
			}
			lo = int(f.cursor.Load())
		}
		for i := lo; i < hi; i++ {
			if f.pivotSlot != nil && f.pivotSlot[i] >= 0 {
				continue // row fully written during the pivot phase
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			f.boundRow(i, st)
			if timed {
				now := time.Now()
				st.boundDur += now.Sub(t0)
				t0 = now
			}
			for _, j := range st.surv {
				f.m.set(i, int(j), f.gate(f.dist(i, int(j)), st))
			}
			st.exact += int64(len(st.surv))
			if timed {
				st.exactDur += time.Since(t0)
			}
		}
	}
}

// boundRow runs the pruning layers over row i: pruned pairs get their
// Sentinel written immediately, survivors' columns land in st.surv for
// the exact pass. On an ungated fill every column survives.
func (f *fill) boundRow(i int, st *tally) {
	st.surv = st.surv[:0]
	n := f.m.n
	for j := i + 1; j < n; j++ {
		if f.pivotSlot != nil && f.pivotSlot[j] >= 0 {
			continue // written (and counted) in the pivot phase
		}
		st.total++
		if f.bound != nil {
			if lb := f.bound(i, j); lb > f.threshold {
				st.prunedBound++
				f.m.set(i, j, Sentinel)
				continue
			}
		}
		if f.pivotD != nil && f.pivotTriBound(i, j) > f.threshold {
			st.prunedPivot++
			f.m.set(i, j, Sentinel)
			continue
		}
		st.surv = append(st.surv, int32(j))
	}
}

// gate stores-or-sentinels one exactly-evaluated distance.
func (f *fill) gate(v float64, st *tally) float64 {
	if f.cut > 0 && v > f.cut {
		st.gated++
		return Sentinel
	}
	return v
}

// pivotTriBound is max_p |d(i,p) − d(j,p)|, early-exiting once any pivot
// certifies the pair above the threshold.
func (f *fill) pivotTriBound(i, j int) float64 {
	var best float64
	for _, row := range f.pivotD {
		d := row[i] - row[j]
		if d < 0 {
			d = -d
		}
		if d > best {
			if d > f.threshold {
				return d
			}
			best = d
		}
	}
	return best
}

// selectPivots picks k pivots by farthest-point traversal — item 0
// first, then repeatedly the item maximizing its distance to the nearest
// chosen pivot (ties toward the smallest index) — computing each pivot's
// full exact distance row along the way. Farthest-point spreads pivots
// across the metric space, which is what makes |d(i,p) − d(j,p)| sharp:
// a pivot near i and far from j certifies a large d(i,j).
func (f *fill) selectPivots(k int) {
	n := f.m.n
	f.pivotSlot = make([]int32, n)
	for i := range f.pivotSlot {
		f.pivotSlot[i] = -1
	}
	f.pivotD = make([][]float64, 0, k)
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = Sentinel
	}
	st := &tally{}
	start := time.Now()
	defer func() { f.flush(st, start) }()
	cur := 0
	for t := 0; t < k; t++ {
		f.pivotSlot[cur] = int32(t)
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if j == cur {
				continue
			}
			if s := f.pivotSlot[j]; s >= 0 {
				// Pair already computed (and counted) by an earlier
				// pivot's row; reuse the symmetric entry.
				row[j] = f.pivotD[s][cur]
				continue
			}
			lo, hi := min(cur, j), max(cur, j)
			v := f.dist(lo, hi)
			st.total++
			st.exact++
			row[j] = v
			f.m.set(lo, hi, f.gate(v, st))
		}
		f.pivotD = append(f.pivotD, row)
		next := -1
		best := -1.0
		for j := 0; j < n; j++ {
			if f.pivotSlot[j] >= 0 {
				continue
			}
			if row[j] < minD[j] {
				minD[j] = row[j]
			}
			if minD[j] > best {
				best = minD[j]
				next = j
			}
		}
		if next < 0 {
			break // every item is a pivot
		}
		cur = next
	}
}

// flush publishes one worker's tallies: one batch of counter adds plus
// busy-time observations into the registry. The layer counters and the
// time split exist only for a gated fill — consumers read
// "pairs_total == 0" as "pruning never engaged".
func (f *fill) flush(st *tally, start time.Time) {
	if f.reg == nil {
		return
	}
	f.reg.Counter("distmatrix/pairs").Add(st.exact)
	f.reg.Histogram("distmatrix/worker_busy").Observe(time.Since(start))
	if f.cut == 0 {
		return
	}
	f.reg.Counter("distmatrix/pairs_total").Add(st.total)
	f.reg.Counter("distmatrix/pairs_pruned_bound").Add(st.prunedBound)
	f.reg.Counter("distmatrix/pairs_pruned_pivot").Add(st.prunedPivot)
	f.reg.Counter("distmatrix/pairs_gated").Add(st.gated)
	f.reg.Histogram("distmatrix/prefilter_busy").Observe(st.boundDur)
	f.reg.Histogram("distmatrix/exact_busy").Observe(st.exactDur)
}
