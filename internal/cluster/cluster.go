// Package cluster implements the agglomerative hierarchical clustering
// used by the θ_hm test: hosts whose interstitial-time histograms are
// close under the Earth Mover's Distance are merged bottom-up with
// average linkage (UPGMA), producing a dendrogram whose link weights are
// the average inter-cluster distances. The final clusters are formed by
// cutting the top fraction (the paper uses 5%) of links with the largest
// weights.
//
// There are two builders of the same Dendrogram. Agglomerate reads every
// pairwise distance into a working n×n matrix: the small-population path
// and the oracle. AgglomerateSparse works from distmatrix's band-indexed
// neighbour graph of the finite pairs alone — at campus width nine pairs
// in ten are the +Inf sentinel — and reproduces Agglomerate's merges bit
// for bit. Cutting and the spread statistics only see the Dendrogram and
// a DistFunc.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrNoItems is returned when clustering is requested over zero items.
var ErrNoItems = errors.New("cluster: no items")

// DistFunc reports the distance between items i and j. It must be
// symmetric and non-negative; it is only ever called with i != j. A
// +Inf value is the above-cut sentinel a pruned distance matrix stores
// for pairs whose distance provably exceeds the clustering cut (see
// internal/distmatrix): legal input, treated as "further than anything
// finite". The Lance–Williams average absorbs it — any cluster pair
// containing a sentinel member pair averages to +Inf — so sentinel
// links can only form after every finite merge, and a top-fraction cut
// that removes them never merges across a sentinel.
type DistFunc func(i, j int) float64

// Merge records one agglomeration step. Cluster ids 0..n-1 are the
// original items (leaves); the merge at step k creates cluster id n+k.
type Merge struct {
	// A and B are the ids of the merged clusters.
	A, B int
	// Parent is the id of the resulting cluster.
	Parent int
	// Weight is the average-linkage distance between A and B at merge
	// time — the weight of this dendrogram link.
	Weight float64
}

// Dendrogram is the full merge tree produced by Agglomerate.
type Dendrogram struct {
	n      int
	merges []Merge
}

// Agglomerate builds a complete average-linkage dendrogram over n items.
// Pairwise distances are read once into a working matrix and updated with
// the Lance–Williams recurrence, so dist is called exactly n·(n−1)/2
// times.
//
// The closest active pair at each step is found through a per-row
// nearest-neighbor cache: rowmin[i] / nn[i] hold the smallest distance in
// row i's upper triangle and the column attaining it, so one step costs
// an O(n) scan over cached row minima plus recomputation of only the rows
// a merge invalidated. That is O(n²) amortized in practice (O(n³) in
// adversarial tie-heavy inputs) versus the naive O(n³) full rescan —
// the difference between clustering and the distance matrix dominating
// θ_hm at thousands of hosts. Merge order, including ties (broken toward
// the smallest slot indices), is identical to the full rescan. O(n²)
// space.
func Agglomerate(n int, dist DistFunc) (*Dendrogram, error) {
	if n <= 0 {
		return nil, ErrNoItems
	}
	d := &Dendrogram{n: n}
	if n == 1 {
		return d, nil
	}

	// Working distance matrix over active clusters, indexed by slot.
	// slotID maps slot -> current cluster id; size maps slot -> member
	// count. Merged-away slots are marked inactive.
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("cluster: invalid distance %v between %d and %d", v, i, j)
			}
			mat[i][j] = v
			mat[j][i] = v
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	slotID := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		slotID[i] = i
	}

	// rowmin[i] is min over active j > i of mat[i][j]; nn[i] the smallest
	// such j attaining it (-1 / +Inf when row i has no active successor
	// with a finite distance — sentinel entries are deliberately never
	// cached, so a row of sentinels looks identical to an empty row and
	// the selection loop's fallback handles both).
	// Scanning j ascending with a strict < reproduces the smallest-j tie
	// break of a full rescan.
	rowmin := make([]float64, n)
	nn := make([]int, n)
	recompute := func(i int) {
		rowmin[i] = math.Inf(1)
		nn[i] = -1
		for j := i + 1; j < n; j++ {
			if active[j] && mat[i][j] < rowmin[i] {
				rowmin[i] = mat[i][j]
				nn[i] = j
			}
		}
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}

	d.merges = make([]Merge, 0, n-1)
	for step := 0; step < n-1; step++ {
		// Closest active pair: the smallest cached row minimum, scanning
		// rows ascending with strict < so ties break toward the smallest
		// (i, j) exactly as a full upper-triangle rescan would.
		bi := -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if active[i] && rowmin[i] < best {
				best = rowmin[i]
				bi = i
			}
		}
		var bj int
		if bi < 0 {
			// Every remaining inter-cluster distance is the above-cut
			// sentinel (+Inf): the nearest-neighbor cache records finite
			// distances only, so no row qualified. A pruned θ_hm matrix
			// produces exactly this once the below-cut structure has
			// merged. Finish the dendrogram deterministically — the two
			// smallest active slots, weight +Inf — so CutTopFraction
			// removes these links first and never merges across a
			// sentinel.
			for i := 0; i < n && bi < 0; i++ {
				if active[i] {
					bi = i
				}
			}
			bj = -1
			for j := bi + 1; j < n && bj < 0; j++ {
				if active[j] {
					bj = j
				}
			}
		} else {
			bj = nn[bi]
		}
		parent := n + step
		d.merges = append(d.merges, Merge{A: slotID[bi], B: slotID[bj], Parent: parent, Weight: best})

		// Lance–Williams average-linkage update: the merged cluster lives
		// in slot bi; slot bj becomes inactive.
		ni, nj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			upd := average(ni, mat[bi][k], nj, mat[bj][k])
			mat[bi][k] = upd
			mat[k][bi] = upd
		}
		size[bi] += size[bj]
		slotID[bi] = parent
		active[bj] = false

		// Repair the caches the merge invalidated (bi < bj always):
		//   - row bi: every mat[bi][k] changed;
		//   - rows k < bj pointing at bj: their minimum vanished;
		//   - rows k < bi: mat[k][bi] changed — if the row pointed at bi
		//     the old minimum is stale (the value may have risen), else
		//     the new value can only improve the cached minimum, with a
		//     smallest-j tie break against the incumbent.
		recompute(bi)
		for k := 0; k < bj; k++ {
			if !active[k] || k == bi {
				continue
			}
			if nn[k] == bj {
				recompute(k)
				continue
			}
			if k < bi {
				if nn[k] == bi {
					recompute(k)
				} else if v := mat[k][bi]; v < rowmin[k] || (v == rowmin[k] && bi < nn[k]) {
					rowmin[k] = v
					nn[k] = bi
				}
			}
		}
	}
	return d, nil
}

// Leaves returns the number of original items.
func (d *Dendrogram) Leaves() int { return d.n }

// Merges returns the agglomeration steps in merge order. The returned
// slice is owned by the dendrogram; callers must not modify it.
func (d *Dendrogram) Merges() []Merge { return d.merges }

// Cut removes the `removeLinks` largest-weight links (ties broken toward
// later merges) and returns the connected components of the remaining
// forest as clusters of leaf indices. Each cluster's members are sorted
// ascending, and clusters are ordered by their smallest member.
//
// Cut(0) returns a single cluster of all leaves; Cut(k) for k >= the
// number of links returns all singletons.
func (d *Dendrogram) Cut(removeLinks int) [][]int {
	if removeLinks < 0 {
		removeLinks = 0
	}
	keep := make([]bool, len(d.merges))
	for i := range keep {
		keep[i] = true
	}
	if removeLinks > 0 {
		order := make([]int, len(d.merges))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(d.merges[b].Weight, d.merges[a].Weight); c != 0 {
				return c
			}
			return cmp.Compare(b, a)
		})
		if removeLinks > len(order) {
			removeLinks = len(order)
		}
		for _, idx := range order[:removeLinks] {
			keep[idx] = false
		}
	}

	// Union-find over leaves and internal nodes.
	parent := make([]int, d.n+len(d.merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i, m := range d.merges {
		if keep[i] {
			union(m.A, m.Parent)
			union(m.B, m.Parent)
		} else {
			// A removed link still ties the two children to the internal
			// node's identity for bookkeeping of later merges: later kept
			// merges reference Parent, which must represent the union of
			// whatever remains connected through it. Connect Parent to A
			// only, so the link to B is the one severed.
			union(m.A, m.Parent)
		}
	}

	groups := make(map[int][]int)
	for leaf := 0; leaf < d.n; leaf++ {
		root := find(leaf)
		groups[root] = append(groups[root], leaf)
	}
	clusters := make([][]int, 0, len(groups))
	for _, members := range groups {
		sort.Ints(members)
		clusters = append(clusters, members)
	}
	slices.SortFunc(clusters, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	return clusters
}

// CutTopFraction removes the ceil(frac · links) largest-weight links and
// returns the resulting clusters; the paper cuts frac = 0.05.
func (d *Dendrogram) CutTopFraction(frac float64) [][]int {
	if frac <= 0 || len(d.merges) == 0 {
		return d.Cut(0)
	}
	if frac >= 1 {
		return d.Cut(len(d.merges))
	}
	k := int(math.Ceil(frac * float64(len(d.merges))))
	return d.Cut(k)
}

// Diameter returns the maximum pairwise distance among members, i.e. the
// cluster diameter the θ_hm threshold τ_hm filters on. A cluster of fewer
// than two members has diameter 0.
func Diameter(members []int, dist DistFunc) float64 {
	var diam float64
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			if v := dist(members[a], members[b]); v > diam {
				diam = v
			}
		}
	}
	return diam
}

// MeanPairwise returns the average pairwise distance among members — a
// robust alternative spread statistic to Diameter: one contaminated
// member inflates the maximum far more than the mean. A cluster of fewer
// than two members has spread 0.
func MeanPairwise(members []int, dist DistFunc) float64 {
	if len(members) < 2 {
		return 0
	}
	var sum float64
	var n int
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			sum += dist(members[a], members[b])
			n++
		}
	}
	return sum / float64(n)
}
