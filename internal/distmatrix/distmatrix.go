// Package distmatrix computes symmetric pairwise distances in parallel:
// θ_hm's Earth Mover's Distance comparisons are the FindPlotters
// pipeline's dominant cost, and every pair is independent.
//
// There are two outputs and one worker loop. Compute fills a dense n×n
// Matrix: the small-population path, and the oracle every equivalence
// test compares against. ComputeSparse builds the neighbour Graph of the
// pairs at or below a cut, writing each pair of a key band once, in
// place, and never allocates or visits n² of anything: it is what θ_hm
// runs at campus width, where fewer than a tenth of the pairs are below
// the clustering cut and the rest would be the sentinel anyway.
//
// Both hand blocks of consecutive rows, balanced by pair count, to a
// worker pool bounded by runtime.NumCPU; a single worker runs the same
// loop inline, as inputs below DefaultSequentialCutoff always do.
//
// The sparse fill prunes in two layers, cheapest first:
//
//  1. index — items are sorted once by an admissible 1-D key
//     (|key_i − key_j| ≤ dist(i, j); for θ_hm the signature mean), and
//     each item sweeps only the items whose key lies within the cut of
//     its own. Pairs outside that band are never touched.
//  2. exact evaluation — band pairs get the real DistFunc call; values
//     above the cut are stored as Sentinel (the gate).
//
// The invariant the equivalence tests pin: the graph holds exactly the
// finite cells of Compute(n, dist, Options{Cut}). Every stored value
// comes from dist(i, j) alone, in the slot its two sweep positions fix,
// so the result is bit-identical at every worker count by construction;
// the layers decide how many exact evaluations are spent producing it,
// never what it contains.
//
// Neither fill has an error path or takes a context, on purpose: a
// DistFunc compares two already-validated items (clustering rejects NaN
// or negative distances afterwards), and the only caller runs the fill
// to completion inside one detection window.
package distmatrix

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plotters/internal/metrics"
)

// DistFunc reports the distance between items i and j (i < j). It must
// be safe for concurrent calls from multiple goroutines.
type DistFunc func(i, j int) float64

// Sentinel is the value of a pair whose distance exceeds the cut: what a
// gated Matrix stores and a Graph reports for a pair it does not hold.
// +Inf is deliberate: average-linkage arithmetic absorbs it (any cluster
// pair containing a sentinel member pair averages to +Inf), which is the
// "never merged below the cut" semantics θ_hm's pruning needs.
var Sentinel = math.Inf(1)

// IsSentinel reports whether a distance is the above-cut sentinel.
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

// Graph is the neighbour graph of the pairs at or below a cut, in band
// layout: items sorted by their index key, each sweep position's band
// partners in one contiguous run of a flat value array, and every pair
// the band holds stored once, in the slot its positions fix. A Graph is
// read-only once built; its fields are exported for the clusterer,
// which builds its own lists from them.
type Graph struct {
	// Order lists the items in ascending key order; Pos is its inverse.
	Order, Pos []int32
	// End[p] is one past the last band partner of sweep position p:
	// p's partners are the positions p+1 … End[p]−1. It never decreases.
	End []int32
	// Off[p] is where position p's band starts in Val.
	Off []int
	// Val[Off[p]+q−p−1] is the distance of the pair at positions
	// (p, q), or Sentinel where it is above the cut.
	Val []float64
}

// N returns the number of items.
func (g *Graph) N() int { return len(g.Pos) }

// Pairs returns the number of pairs the graph holds: the band pairs at
// or below the cut.
func (g *Graph) Pairs() int {
	k := 0
	for _, v := range g.Val {
		if !IsSentinel(v) {
			k++
		}
	}
	return k
}

// At returns the distance between items i and j: the stored value for a
// pair the graph holds, Sentinel for one it does not, 0 on the diagonal —
// exactly what the gated Matrix holds in that cell.
func (g *Graph) At(i, j int) float64 {
	if i == j {
		return 0
	}
	p, q := int(g.Pos[i]), int(g.Pos[j])
	if q < p {
		p, q = q, p
	}
	if q >= int(g.End[p]) {
		return Sentinel
	}
	return g.Val[g.Off[p]+q-p-1]
}

// Options tunes Compute and ComputeSparse. The zero value asks for full
// parallelism and, for Compute, an ungated fill.
type Options struct {
	// Parallelism bounds the worker pool: 0 (or negative) means
	// runtime.NumCPU(), 1 runs the fill inline on the caller's
	// goroutine. Explicit values above NumCPU are honored — the workload
	// is CPU-bound so they rarely help, but they keep the pool testable
	// on single-core machines.
	Parallelism int
	// Metrics, when non-nil, receives under "distmatrix/": the pairs
	// counter (exact evaluations), the workers gauge, the worker_busy
	// stage (each worker's busy wall time, one observation per worker;
	// the gap between its min and max is load imbalance) and, for a gated fill, pairs_gated (evaluated, found
	// above the cut). ComputeSparse adds pairs_total (n·(n−1)/2) and
	// pairs_pruned_index (outside the key band, never touched):
	// pairs_total = pairs + pairs_pruned_index. Recorded once per worker,
	// never per pair.
	Metrics *metrics.Registry

	// Cut is the gate. Compute with a positive Cut stores every pair
	// above it as Sentinel (zero disables gating) but still evaluates
	// every pair, which makes it the oracle for ComputeSparse — whose
	// graph holds exactly the pairs with dist <= Cut.
	Cut float64
}

// boundSlack is the relative margin added to Cut before comparing key
// distances against it: a key computed by a different float summation than
// the exact distance can exceed it by a few ulps on near-equal pairs, and
// a false prune there would break the gated invariant. The exact value's
// own gate comparison uses Cut unmodified.
const boundSlack = 1e-9

// DefaultSequentialCutoff is the n below which the worker pool is not
// worth its startup cost: a 48×48 matrix is ~1.1k pairs, on the order of
// the cost of spinning up and tearing down the pool itself.
const DefaultSequentialCutoff = 48

// minBlockPairs floors the row-block size so a small fill is not chopped
// into blocks cheaper than the cursor claim that hands them out.
const minBlockPairs = 256

// Workers resolves the effective worker count for n items.
func (o Options) Workers(n int) int {
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
	f := &fill{n: n, reg: opts.Metrics, gated: opts.Cut > 0}
	f.row = func(i int, st *tally) {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if f.gated && v > opts.Cut {
				st.gated++
				v = Sentinel
			}
			m.set(i, j, v)
		}
		st.exact += int64(n - 1 - i)
	}
	f.run(opts.Workers(n), n*(n-1)/2)
	return m
}

// ComputeSparse builds the neighbour graph of the pairs with
// dist(i, j) <= opts.Cut over len(key) items without visiting the pairs
// outside the key band (see the package comment). key is the index
// layer's coordinate: |key[i] − key[j]| <= dist(i, j) + slack must hold
// for every pair, slack being the caller's absolute bound on the
// rounding between the two computations.
func ComputeSparse(key []float64, slack float64, dist DistFunc, opts Options) *Graph {
	n := len(key)
	// Sweep order: ascending key. Ties need no rule — the band is a set,
	// and a pair's value depends only on its two items.
	g := &Graph{Order: make([]int32, n), Pos: make([]int32, n), End: make([]int32, n), Off: make([]int, n)}
	for i := range g.Order {
		g.Order[i] = int32(i)
	}
	slices.SortFunc(g.Order, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
	// End[p] is one past the last sweep position whose key is within the
	// widened cut of position p's; keys ascend, so it never moves back.
	width := opts.Cut*(1+boundSlack) + slack
	band := 0
	for p, e := 0, 0; p < n; p++ {
		g.Pos[g.Order[p]] = int32(p)
		e = max(e, p+1)
		for e < n && key[g.Order[e]]-key[g.Order[p]] <= width {
			e++
		}
		g.End[p], g.Off[p] = int32(e), band
		band += e - p - 1
	}
	g.Val = make([]float64, band)

	// Each position writes only its own band slots, so the graph is the
	// same at every worker count.
	f := &fill{n: n, reg: opts.Metrics, gated: true, end: g.End}
	f.row = func(p int, st *tally) {
		i := int(g.Order[p])
		val := g.Val[g.Off[p]:]
		for k, o := range g.Order[p+1 : g.End[p]] {
			lo, hi := i, int(o)
			if hi < lo {
				lo, hi = hi, lo
			}
			if v := dist(lo, hi); v <= opts.Cut {
				val[k] = v
			} else {
				val[k] = Sentinel
				st.gated++
			}
		}
		st.exact += int64(g.End[p]) - int64(p) - 1
	}
	total := int64(n) * int64(n-1) / 2
	f.reg.Counter("distmatrix/pairs_total").Add(total)
	f.reg.Counter("distmatrix/pairs_pruned_index").Add(total - int64(band))
	f.run(opts.Workers(n), band)
	return g
}

// fill holds the shared state of one fill.
type fill struct {
	n   int
	reg *metrics.Registry
	// row processes one claimed row: matrix row i of the dense fill,
	// sweep position p of the sparse one.
	row func(i int, st *tally)
	// end[i] is one past row i's last partner; nil on the dense fill,
	// where every row runs to n.
	end []int32
	// cursor is the next unclaimed row; blockPairs the pair count a
	// claimed block of rows aims for.
	cursor     atomic.Int64
	blockPairs int
	// gated marks a fill with a cut, which reports pairs_gated.
	gated bool
}

// tally is one worker's local counts, flushed once at worker exit so the
// per-pair loops carry no metrics calls and no locks.
type tally struct {
	exact, gated int64
}

// run executes the fill over pairs pairs on a pool of the given size.
func (f *fill) run(workers, pairs int) {
	f.reg.Gauge("distmatrix/workers").Set(int64(workers))
	// ~8 blocks per worker balances the tail without cursor thrash.
	f.blockPairs = max(pairs/(workers*8), minBlockPairs)
	if workers == 1 {
		f.work()
		return
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
}

// work is the kernel: claim blocks of consecutive rows off the shared
// cursor until the rows are exhausted, and run each claimed row. Blocks
// (not single rows) keep cursor contention negligible and a worker
// reusing its row item against a streak of partners; sizing them to
// roughly blockPairs pairs — dense rows shorten down the triangle, a
// sparse row is as long as its key band — keeps the tail balanced.
func (f *fill) work() {
	st := &tally{}
	start := time.Now()
	defer func() { f.flush(st, start) }()
	n := f.n
	for {
		lo := int(f.cursor.Load())
		var hi int
		for {
			if lo >= n-1 {
				return
			}
			hi = lo
			for pairs := 0; hi < n-1 && pairs < f.blockPairs; hi++ {
				rowEnd := n
				if f.end != nil {
					rowEnd = int(f.end[hi])
				}
				pairs += rowEnd - 1 - hi
			}
			if f.cursor.CompareAndSwap(int64(lo), int64(hi)) {
				break
			}
			lo = int(f.cursor.Load())
		}
		for i := lo; i < hi; i++ {
			f.row(i, st)
		}
	}
}

// flush publishes one worker's tallies: one batch of counter adds plus a
// busy-time observation.
func (f *fill) flush(st *tally, start time.Time) {
	if f.reg == nil {
		return
	}
	f.reg.Counter("distmatrix/pairs").Add(st.exact)
	f.reg.Stage("distmatrix/worker_busy").Observe(time.Since(start))
	if f.gated {
		f.reg.Counter("distmatrix/pairs_gated").Add(st.gated)
	}
}
