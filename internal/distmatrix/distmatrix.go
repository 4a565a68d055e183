// Package distmatrix computes symmetric pairwise distances in parallel:
// θ_hm's Earth Mover's Distance comparisons are the FindPlotters
// pipeline's dominant cost, and every pair is independent.
//
// There are two outputs and one worker loop. Compute fills a dense n×n
// Matrix: the small-population path, and the oracle every equivalence
// test compares against. ComputeSparse emits only the pairs at or below a
// cut, as a CSR neighbour Graph, and never allocates or visits n² of
// anything: it is what θ_hm runs at campus width, where fewer than a
// tenth of the pairs are below the clustering cut and the rest would be
// the sentinel anyway.
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
//     above the cut are dropped (the gate).
//
// The invariant the equivalence tests pin: the graph holds exactly the
// finite cells of Compute(n, dist, Options{Cut}). Every stored value
// comes from dist(i, j) alone and rows are sorted by neighbour, so the
// result is bit-identical at every worker count by construction; the
// layers decide how many exact evaluations are spent producing it, never
// what it contains.
//
// Neither fill has an error path or takes a context, on purpose: a
// DistFunc compares two already-validated items (clustering rejects NaN
// or negative distances afterwards), and the only caller runs the fill
// to completion inside one detection window.
package distmatrix

import (
	"math"
	"runtime"
	"slices"
	"sort"
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

// Graph is the neighbour graph of the pairs at or below a cut, in CSR
// form: three flat arrays, no slice per item. Each pair is stored once,
// in the row of its smaller item; row i lists item i's neighbours j > i
// in ascending order with their exact distances. A Graph is read-only
// once built.
type Graph struct {
	start []int     // row i is nbr/dist[start[i]:start[i+1]]
	nbr   []int32   // neighbour indices, ascending within a row
	dist  []float64 // parallel to nbr
}

// N returns the number of items.
func (g *Graph) N() int { return len(g.start) - 1 }

// Pairs returns the number of pairs the graph holds.
func (g *Graph) Pairs() int { return len(g.nbr) }

// Row returns item i's neighbours above i, ascending, and their
// distances. The slices alias the graph; callers must not modify them.
func (g *Graph) Row(i int) ([]int32, []float64) {
	lo, hi := g.start[i], g.start[i+1]
	return g.nbr[lo:hi], g.dist[lo:hi]
}

// At returns the distance between items i and j: the stored value for a
// pair the graph holds, Sentinel for one it does not, 0 on the diagonal —
// exactly what the gated Matrix holds in that cell.
func (g *Graph) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if j < i {
		i, j = j, i
	}
	nbr, dist := g.Row(i)
	if k, ok := slices.BinarySearch(nbr, int32(j)); ok {
		return dist[k]
	}
	return Sentinel
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
// dist(i, j) <= opts.Cut over len(key) items without visiting the rest
// (see the package comment). key is the index layer's coordinate:
// |key[i] − key[j]| <= dist(i, j) + slack must hold for every pair, slack
// being the caller's absolute bound on the rounding between the two
// computations.
func ComputeSparse(key []float64, slack float64, dist DistFunc, opts Options) *Graph {
	n := len(key)
	if n < 2 {
		return &Graph{start: make([]int, n+1)}
	}
	// Sweep order: ascending key. Ties need no rule — the band is a set,
	// and the graph's rows are sorted by item index whatever order the
	// sweep found them in.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	// end[p] is one past the last sweep position whose key is within the
	// widened cut of position p's; keys ascend, so it never moves back.
	width := opts.Cut*(1+boundSlack) + slack
	end := make([]int32, n)
	band := 0
	for p, e := 0, 0; p < n; p++ {
		e = max(e, p+1)
		for e < n && key[order[e]]-key[order[p]] <= width {
			e++
		}
		end[p] = int32(e)
		band += e - p - 1
	}

	f := &fill{n: n, reg: opts.Metrics, gated: true, end: end}
	f.row = func(p int, st *tally) {
		i := int(order[p])
		for _, o := range order[p+1 : end[p]] {
			lo, hi := i, int(o)
			if hi < lo {
				lo, hi = hi, lo
			}
			st.exact++
			if v := dist(lo, hi); v <= opts.Cut {
				st.add(edge{int32(lo), int32(hi), v})
			} else {
				st.gated++
			}
		}
	}
	total := int64(n) * int64(n-1) / 2
	f.reg.Counter("distmatrix/pairs_total").Add(total)
	f.reg.Counter("distmatrix/pairs_pruned_index").Add(total - int64(band))
	f.run(opts.Workers(n), band)
	return f.graph()
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
	// found collects each worker's below-cut pairs on the sparse fill.
	mu    sync.Mutex
	found [][]edge
}

// edge is one below-cut pair (a < b) and its exact distance.
type edge struct {
	a, b int32
	d    float64
}

// edgeChunk is the capacity of one block of a worker's found list. Fixed
// blocks rather than one growing slice: append's growth would copy — and
// allocate — several times the final size.
const edgeChunk = 1 << 15

// tally is one worker's local counts and found pairs, flushed once at
// worker exit so the per-pair loops carry no metrics calls and no locks.
type tally struct {
	exact, gated int64

	found [][]edge
}

func (st *tally) add(e edge) {
	k := len(st.found) - 1
	if k < 0 || len(st.found[k]) == cap(st.found[k]) {
		st.found = append(st.found, make([]edge, 0, edgeChunk))
		k++
	}
	st.found[k] = append(st.found[k], e)
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

// flush publishes one worker's tallies — one batch of counter adds plus a
// busy-time observation — and hands over the pairs it found.
func (f *fill) flush(st *tally, start time.Time) {
	if st.found != nil {
		f.mu.Lock()
		f.found = append(f.found, st.found...)
		f.mu.Unlock()
	}
	if f.reg == nil {
		return
	}
	f.reg.Counter("distmatrix/pairs").Add(st.exact)
	f.reg.Stage("distmatrix/worker_busy").Observe(time.Since(start))
	if f.gated {
		f.reg.Counter("distmatrix/pairs_gated").Add(st.gated)
	}
}

// graph assembles the workers' found pairs into the CSR graph. The pairs
// arrive in whatever order the pool produced them; two counting passes
// make the result canonical without a comparison sort. The first buckets
// every pair under its larger item; the second walks those buckets in
// ascending order and appends each pair to the row of its smaller item,
// which therefore fills in ascending neighbour order.
func (f *fill) graph() *Graph {
	n := f.n
	byHi, start := make([]int, n+1), make([]int, n+1)
	for _, chunk := range f.found {
		for _, e := range chunk {
			byHi[e.b+1]++
			start[e.a+1]++
		}
	}
	for i := 0; i < n; i++ {
		byHi[i+1] += byHi[i]
		start[i+1] += start[i]
	}
	pairs := start[n]
	next := make([]int, n)
	copy(next, byHi)
	lo, d := make([]int32, pairs), make([]float64, pairs)
	for _, chunk := range f.found {
		for _, e := range chunk {
			lo[next[e.b]], d[next[e.b]] = e.a, e.d
			next[e.b]++
		}
	}
	f.found = nil
	g := &Graph{start: start, nbr: make([]int32, pairs), dist: make([]float64, pairs)}
	copy(next, start)
	for j := 0; j < n; j++ {
		for k := byHi[j]; k < byHi[j+1]; k++ {
			i := lo[k]
			g.nbr[next[i]], g.dist[next[i]] = int32(j), d[k]
			next[i]++
		}
	}
	return g
}
