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
// frequent among its neighbors (weighted by shared-contact count), and
// ties break toward the smallest label. No randomness, no map-iteration
// order, no goroutine interleaving — the same graph always yields the
// same partition, which the golden and -race determinism tests pin.
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

	votes := make(map[int32]int64)
	for iter := 0; iter < maxIterations; iter++ {
		changed := false
		for v := 0; v < n; v++ { // ascending host order: hosts is sorted
			if len(g.adj[v]) == 0 {
				continue
			}
			clear(votes)
			for i, nb := range g.adj[v] {
				votes[labels[nb]] += int64(g.wts[v][i])
			}
			best := labels[v]
			var bestN int64 = -1
			for l, cnt := range votes {
				if cnt > bestN || (cnt == bestN && l < best) {
					best, bestN = l, cnt
				}
			}
			if best != labels[v] {
				labels[v] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Canonicalize: group by final label, then relabel each group by its
	// smallest member address (vertex order is address order, so the
	// first member seen is the smallest).
	groups := make(map[int32][]int32, n)
	for v := 0; v < n; v++ {
		groups[labels[v]] = append(groups[labels[v]], int32(v))
	}
	out := make([]core.Community, 0, len(groups))
	for _, vs := range groups {
		c := core.Community{Label: g.hosts[vs[0]], Members: make([]flow.IP, len(vs))}
		member := make(map[int32]bool, len(vs))
		for i, v := range vs {
			c.Members[i] = g.hosts[v]
			member[v] = true
		}
		for _, v := range vs {
			for i, nb := range g.adj[v] {
				if nb > v && member[nb] { // count each internal edge once
					c.InternalEdges++
					c.SharedContacts += int(g.wts[v][i])
				}
			}
		}
		out = append(out, c)
	}
	// Map iteration above is unordered; sort by canonical label for a
	// deterministic result.
	sortCommunities(out)
	return out
}

func sortCommunities(cs []core.Community) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Label < cs[j-1].Label; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
