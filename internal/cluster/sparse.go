package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"plotters/internal/distmatrix"
)

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
// only shrink, so they are built once, into flat arrays, straight from
// the graph's band.
//
// Selection is Agglomerate's — a per-row nearest-neighbour cache over
// finite distances to higher slots, smallest row then smallest column on
// ties, the merged cluster living in the smaller slot — and any procedure
// that keeps that cache exact picks the same pair at every step. Once no
// finite pair is left every distance is +Inf for good; Agglomerate then
// links the two smallest active slots at each step, which is a chain
// through the active slots in ascending order, emitted here directly.
func AgglomerateSparse(g *distmatrix.Graph) (*Dendrogram, error) {
	n := g.N()
	if n <= 0 {
		return nil, ErrNoItems
	}
	d := &Dendrogram{n: n}
	if n == 1 {
		return d, nil
	}

	// Working lists, both directions of every finite pair: slot i's list
	// is lists[start[i]:][:length[i]], and a pair's id is its slot in
	// the graph's band, so pval, the values merges rewrite, is one copy
	// of the graph's. Appending each item x, in ascending order, to the
	// lists of its band partners — the positions above its own, and the
	// contiguous run below whose bands reach it — leaves every list
	// ascending.
	start := make([]int, n+1)
	for p, e := range g.End {
		for k, v := range g.Val[g.Off[p]:][:int(e)-p-1] {
			if v < 0 || math.IsNaN(v) {
				i, j := g.Order[p], g.Order[p+1+k]
				return nil, fmt.Errorf("cluster: invalid distance %v between %d and %d", v, min(i, j), max(i, j))
			}
			if !math.IsInf(v, 1) {
				start[g.Order[p]+1]++
				start[g.Order[p+1+k]+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	lists := make([]entry, start[n])
	pval := slices.Clone(g.Val)
	length := make([]int32, n)
	link := func(x, q, id int) {
		if !math.IsInf(pval[id], 1) {
			y := g.Order[q]
			lists[start[y]+int(length[y])] = entry{int32(x), int32(id)}
			length[y]++
		}
	}
	for x := 0; x < n; x++ {
		p := int(g.Pos[x])
		lo, _ := slices.BinarySearch(g.End[:p], int32(p+1))
		for r := lo; r < p; r++ {
			link(x, r, g.Off[r]+p-r-1)
		}
		for q := p + 1; q < int(g.End[p]); q++ {
			link(x, q, g.Off[p]+q-p-1)
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
	list := func(i int) []entry {
		return lists[start[i]:][:length[i]]
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
		l := list(i)
		k, _ := slices.BinarySearchFunc(l, int32(i)+1, func(e entry, j int32) int { return cmp.Compare(e.nbr, j) })
		for _, e := range l[k:] {
			if j, v := int(e.nbr), pval[e.id]; active[j] && v < rowmin[i] {
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
		a, b := list(bi), list(bj)
		w, pb := 0, 0
		for _, e := range a {
			k := int(e.nbr)
			va := pval[e.id]
			if !active[k] || math.IsInf(va, 1) {
				continue
			}
			for pb < len(b) && b[pb].nbr < e.nbr {
				pb++
			}
			upd := math.Inf(1)
			if pb < len(b) && b[pb].nbr == e.nbr {
				upd = average(ni, va, nj, pval[b[pb].id])
			}
			pval[e.id] = upd
			if upd < math.Inf(1) {
				a[w] = e
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
		for _, e := range b {
			if k := int(e.nbr); k < bj && k != bi && active[k] && nn[k] == bj {
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

// entry is one side of a finite pair in a slot's list: the neighbour
// slot, and the pair's id, which indexes its current distance.
type entry struct{ nbr, id int32 }

// average is the Lance–Williams average-linkage update, shared by both
// clusterers so they round identically.
func average(ni, a, nj, b float64) float64 {
	return (ni*a + nj*b) / (ni + nj)
}
