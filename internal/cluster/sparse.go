package cluster

import (
	"fmt"
	"math"
	"slices"
)

// RowFunc returns item i's finite neighbours above i — each pair is
// listed once, by its smaller item — in ascending order, and the
// distances to them, as two parallel slices. A pair no row lists is at
// distance +Inf, the above-cut sentinel of DistFunc.
type RowFunc func(i int) (nbr []int32, dist []float64)

// AgglomerateSparse is Agglomerate over a neighbour graph: the dendrogram
// Agglomerate builds from the same distances with +Inf for every pair the
// graph does not hold, merge for merge and bit for bit, in time and space
// proportional to the graph instead of n².
//
// +Inf is absorbing under the Lance–Williams average: d(A∪B, K) is finite
// only when d(A,K) and d(B,K) both are, so the finite neighbours of A∪B
// are exactly N(A) ∩ N(B). Each slot keeps (neighbour, pair id) entries
// sorted by slot, and each pair's distance lives once, by id; a merge is
// a two-pointer intersection of two lists, written back over the
// surviving slot's own (it is a subsequence), with Agglomerate's
// arithmetic per common neighbour written once for both lists. Lists
// only shrink, so the graph is copied once into flat arrays.
//
// Selection is Agglomerate's — a per-row nearest-neighbour cache over
// finite distances to higher slots, smallest row then smallest column on
// ties, the merged cluster living in the smaller slot — and any procedure
// that keeps that cache exact picks the same pair at every step. Once no
// finite pair is left every distance is +Inf for good; Agglomerate then
// links the two smallest active slots at each step, which is a chain
// through the active slots in ascending order, emitted here directly.
func AgglomerateSparse(n int, row RowFunc) (*Dendrogram, error) {
	if n <= 0 {
		return nil, ErrNoItems
	}
	d := &Dendrogram{n: n}
	if n == 1 {
		return d, nil
	}

	// Working copy of the graph, both directions of every pair: slot i's
	// list is nbr/pid[start[i]:][:length[i]], pval[id] a pair's distance.
	// Filling rows in ascending i appends to every list in ascending
	// order — lower neighbours while their rows are read, then its own.
	start := make([]int, n+1)
	for i := 0; i < n; i++ {
		rn, _ := row(i)
		start[i+1] += len(rn)
		for _, j := range rn {
			start[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	nbr := make([]int32, start[n])
	pid := make([]int32, start[n])
	pval := make([]float64, 0, start[n]/2)
	length := make([]int32, n)
	for i := 0; i < n; i++ {
		rn, rv := row(i)
		for k, j := range rn {
			v := rv[k]
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("cluster: invalid distance %v between %d and %d", v, i, j)
			}
			at := start[i] + int(length[i])
			nbr[at], pid[at] = j, int32(len(pval))
			length[i]++
			at = start[j] + int(length[j])
			nbr[at], pid[at] = int32(i), int32(len(pval))
			length[j]++
			pval = append(pval, v)
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
	list := func(i int) ([]int32, []int32) {
		lo := start[i]
		hi := lo + int(length[i])
		return nbr[lo:hi], pid[lo:hi]
	}

	// rowmin[i] / nn[i] as in Agglomerate: the smallest finite distance
	// from slot i to an active slot above it, and the smallest such slot.
	// A list may still name slots merged away since it was last
	// rewritten, or a pair lost to +Inf by an intersection on the other
	// side; neither wins the strict <. An inactive slot's rowmin is +Inf,
	// so selection needs no activity test.
	rowmin := make([]float64, n)
	nn := make([]int, n)
	recompute := func(i int) {
		rowmin[i] = math.Inf(1)
		nn[i] = -1
		ln, lp := list(i)
		k, _ := slices.BinarySearch(ln, int32(i)+1)
		for ; k < len(ln); k++ {
			if j, v := int(ln[k]), pval[lp[k]]; active[j] && v < rowmin[i] {
				rowmin[i] = v
				nn[i] = j
			}
		}
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}

	d.merges = make([]Merge, 0, n-1)
	for {
		bi := -1
		best := math.Inf(1)
		for i, v := range rowmin {
			if v < best {
				best = v
				bi = i
			}
		}
		if bi < 0 {
			break // no finite pair left, or one cluster
		}
		bj := nn[bi]
		parent := n + len(d.merges)
		d.merges = append(d.merges, Merge{A: slotID[bi], B: slotID[bj], Parent: parent, Weight: best})

		// Intersect slot bi's list with slot bj's, in place. Every
		// neighbour k of bi sees its distance to bi change — to the
		// average where bj reaches it too, else to +Inf — in the one value
		// both sides of the pair read, and, for k < bi, has its cache
		// repaired by Agglomerate's rule.
		active[bj] = false
		rowmin[bj] = math.Inf(1)
		ni, nj := float64(size[bi]), float64(size[bj])
		an, ap := list(bi)
		bn, bp := list(bj)
		w, pb := 0, 0
		for pa, k32 := range an {
			k, id := int(k32), ap[pa]
			va := pval[id]
			if !active[k] || math.IsInf(va, 1) {
				continue
			}
			for pb < len(bn) && bn[pb] < k32 {
				pb++
			}
			upd := math.Inf(1)
			if pb < len(bn) && bn[pb] == k32 {
				upd = average(ni, va, nj, pval[bp[pb]])
			}
			pval[id] = upd
			if upd < math.Inf(1) {
				an[w], ap[w] = k32, id
				w++
			}
			if k < bi {
				if nn[k] == bi || nn[k] == bj {
					recompute(k)
				} else if upd < rowmin[k] || (upd == rowmin[k] && bi < nn[k]) {
					rowmin[k] = upd
					nn[k] = bi
				}
			}
		}
		length[bi] = int32(w)
		// Rows below bj that pointed at it lost their minimum.
		for _, k32 := range bn {
			if k := int(k32); k < bj && k != bi && active[k] && nn[k] == bj {
				recompute(k)
			}
		}
		size[bi] += size[bj]
		slotID[bi] = parent
		recompute(bi)
	}

	// The +Inf tail: one chain through the remaining slots, ascending.
	first := -1
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		parent := n + len(d.merges)
		d.merges = append(d.merges, Merge{A: slotID[first], B: slotID[i], Parent: parent, Weight: math.Inf(1)})
		slotID[first] = parent
	}
	return d, nil
}

// average is the Lance–Williams average-linkage update, shared by both
// clusterers so they round identically.
func average(ni, a, nj, b float64) float64 {
	return (ni*a + nj*b) / (ni + nj)
}
