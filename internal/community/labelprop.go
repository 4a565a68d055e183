package community

import (
	"plotters/internal/core"
	"plotters/internal/flow"
)

// DefaultMaxIterations bounds label-propagation sweeps. Propagation on
// real graphs converges in a handful of sweeps; the cap only guards
// against the oscillation pathological bipartite structures can sustain.
const DefaultMaxIterations = 64

// Propagate partitions the graph into communities by label propagation,
// made fully deterministic: sweeps are sequential and asynchronous in
// ascending host-address order, each vertex adopts the label most
// frequent among its neighbors (weighted by shared-contact count, tallied
// in a dense per-label array), and ties break toward the smallest label.
// No randomness, no maps, no goroutine interleaving — the same graph
// always yields the same partition, which the golden and -race
// determinism tests pin.
//
// maxIterations <= 0 means DefaultMaxIterations. Isolated vertices end
// as singleton communities. The result is sorted by label.
func Propagate(g *Graph, maxIterations int) []core.Community {
	if maxIterations <= 0 {
		maxIterations = DefaultMaxIterations
	}
	n := len(g.hosts)
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}

	// Dense votes by label, reset through seen. The tie-break is a total
	// order, so the winner does not depend on the order labels are seen.
	votes := make([]int64, n)
	var seen []int32
	for iter := 0; iter < maxIterations; iter++ {
		changed := false
		for v := 0; v < n; v++ { // ascending host order: hosts is sorted
			if len(g.adj[v]) == 0 {
				continue
			}
			for i, nb := range g.adj[v] {
				l := labels[nb]
				if votes[l] == 0 {
					seen = append(seen, l)
				}
				votes[l] += int64(g.wts[v][i])
			}
			best := labels[v]
			var bestN int64 = -1
			for _, l := range seen {
				if cnt := votes[l]; cnt > bestN || (cnt == bestN && l < best) {
					best, bestN = l, cnt
				}
				votes[l] = 0
			}
			seen = seen[:0]
			if best != labels[v] {
				labels[v] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Canonicalize in one ascending scan: a label's first vertex is its
	// smallest member, which names it, so communities come out sorted.
	size := make([]int32, n) // per label
	count := 0
	for _, l := range labels {
		if size[l] == 0 {
			count++
		}
		size[l]++
	}
	at := make([]int32, n) // label -> index in out
	backing := make([]flow.IP, n)
	out := make([]core.Community, 0, count)
	for v, l := range labels {
		if size[l] > 0 {
			at[l] = int32(len(out))
			out = append(out, core.Community{Label: g.hosts[v], Members: backing[:0:size[l]]})
			backing = backing[size[l]:]
			size[l] = 0
		}
		c := &out[at[l]]
		c.Members = append(c.Members, g.hosts[v])
		for i, nb := range g.adj[v] {
			if nb > int32(v) && labels[nb] == l { // count each internal edge once
				c.InternalEdges++
				c.SharedContacts += int(g.wts[v][i])
			}
		}
	}
	return out
}
