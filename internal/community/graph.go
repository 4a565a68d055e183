// Package community implements the second detector of the multi-detector
// framework: mutual-contact community analysis. Where the paper's
// FindPlotters pipeline (internal/core) tells Plotters apart by *how*
// each host talks — failure rate, volume, churn, timer structure — this
// detector looks at *whom* sets of hosts talk to. Bots of one botnet
// rendezvous with the same command-and-control peer population, so their
// contacted-destination sets overlap far more than independent
// file-sharing traders, whose swarms churn apart. The detector builds a
// destination-overlap graph over the window's monitored hosts, finds
// communities with deterministic label propagation, and flags the dense
// ones.
//
// Everything here is deterministic in the contact sets alone: the same
// window of records produces the same graph, communities, and suspect
// set whatever accumulation path (batch, streamed, sharded, merged
// panes) built them.
package community

import (
	"fmt"
	"math"
	"sort"

	"plotters/internal/flow"
)

// GraphConfig tunes mutual-contact graph construction.
type GraphConfig struct {
	// MinSharedContacts is the number of distinct destinations two hosts
	// must both have contacted for an edge between them. Below it, the
	// overlap is indistinguishable from two independent hosts hitting
	// the same popular services.
	MinSharedContacts int
	// MaxFanIn skips destinations contacted by more than this many
	// monitored hosts when counting shared contacts: a destination half
	// the campus talks to (a DNS resolver, a portal) carries no
	// rendezvous signal and would otherwise contribute O(fanin²) pairs.
	// 0 means no cap.
	MaxFanIn int
	// IDFWeights switches edge weights from raw shared-contact counts to
	// destination-rarity sums: each shared destination contributes
	// log(hosts/fanin), in units of 1/256 (fixed point, so accumulation
	// stays integer and order-independent), instead of 1. A destination
	// only two hosts share outweighs one that half the monitored
	// population below the fan-in cap also visits, sharpening the
	// rendezvous signal without moving the MaxFanIn cliff. Edge
	// *existence* still requires MinSharedContacts raw shared
	// destinations, so the graph topology is identical either way; only
	// the weights label propagation and the community shared-contact
	// sums see change. Default off.
	IDFWeights bool
}

// idfScale is the fixed-point scale for IDF edge weights: weights
// accumulate as int32 multiples of 1/idfScale, keeping BuildGraph free
// of float accumulation order effects (integer addition commutes; the
// per-destination log is computed once).
const idfScale = 256

// Validate checks the configuration.
func (c *GraphConfig) Validate() error {
	if c.MinSharedContacts < 1 {
		return fmt.Errorf("community: MinSharedContacts = %d must be >= 1", c.MinSharedContacts)
	}
	if c.MaxFanIn < 0 {
		return fmt.Errorf("community: MaxFanIn = %d must be >= 0 (0 = uncapped)", c.MaxFanIn)
	}
	return nil
}

// Graph is the mutual-contact graph of one detection window: one vertex
// per monitored host, an undirected weighted edge between every pair of
// hosts whose contacted-destination sets share at least
// MinSharedContacts members. Vertices are indexed by position in the
// ascending host list, so all iteration is deterministic.
type Graph struct {
	hosts []flow.IP       // ascending
	index map[flow.IP]int // host -> vertex
	adj   [][]int32       // per-vertex neighbor lists, ascending
	wts   [][]int32       // shared-contact count per neighbor, parallel to adj
	edges int
}

// BuildGraph constructs the mutual-contact graph from per-host contact
// sets (each host's contacted destinations; order inside a set does not
// matter). The construction is an inverted index pass — destination →
// contacting hosts — followed by pair counting, so cost scales with the
// overlap actually present, not with hosts².
func BuildGraph(contacts map[flow.IP][]flow.IP, cfg GraphConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{
		hosts: make([]flow.IP, 0, len(contacts)),
		index: make(map[flow.IP]int, len(contacts)),
	}
	for h := range contacts {
		g.hosts = append(g.hosts, h)
	}
	sort.Slice(g.hosts, func(i, j int) bool { return g.hosts[i] < g.hosts[j] })
	for i, h := range g.hosts {
		g.index[h] = i
	}

	// Invert: destination -> ascending vertex list of contacting hosts.
	inv := make(map[flow.IP][]int32)
	for i, h := range g.hosts {
		for _, dst := range contacts[h] {
			inv[dst] = append(inv[dst], int32(i))
		}
	}

	// Count shared contacts per host pair. Destinations contacted by one
	// host pair nothing; destinations above the fan-in cap are popular
	// services, not rendezvous points. With IDFWeights a second
	// accumulator sums each destination's rarity instead of 1, but the
	// raw count still decides edge existence.
	pairs := make(map[uint64]int32)
	var idf map[uint64]int64
	if cfg.IDFWeights {
		idf = make(map[uint64]int64)
	}
	for _, hs := range inv {
		if len(hs) < 2 || (cfg.MaxFanIn > 0 && len(hs) > cfg.MaxFanIn) {
			continue
		}
		var rarity int64
		if cfg.IDFWeights {
			rarity = int64(math.Round(math.Log(float64(len(g.hosts))/float64(len(hs))) * idfScale))
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
		for i := 0; i < len(hs); i++ {
			for j := i + 1; j < len(hs); j++ {
				key := uint64(hs[i])<<32 | uint64(hs[j])
				pairs[key]++
				if cfg.IDFWeights {
					idf[key] += rarity
				}
			}
		}
	}

	g.adj = make([][]int32, len(g.hosts))
	g.wts = make([][]int32, len(g.hosts))
	for key, n := range pairs {
		if int(n) < cfg.MinSharedContacts {
			continue
		}
		w := n
		if cfg.IDFWeights {
			// Keep the weight in fixed-point units — rounding to whole
			// units would collapse most rarity distinctions — clamped to 1
			// so a qualifying edge always carries a vote even when every
			// shared destination is campus-wide popular (idf ≈ 0).
			w = int32(idf[key])
			if w < 1 {
				w = 1
			}
		}
		a, b := int32(key>>32), int32(key&0xffffffff)
		g.adj[a] = append(g.adj[a], b)
		g.wts[a] = append(g.wts[a], w)
		g.adj[b] = append(g.adj[b], a)
		g.wts[b] = append(g.wts[b], w)
		g.edges++
	}
	for v := range g.adj {
		sortAdj(g.adj[v], g.wts[v])
	}
	return g, nil
}

// sortAdj sorts a neighbor list ascending, keeping weights parallel.
func sortAdj(adj, wts []int32) {
	idx := make([]int, len(adj))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return adj[idx[i]] < adj[idx[j]] })
	na := make([]int32, len(adj))
	nw := make([]int32, len(wts))
	for i, k := range idx {
		na[i] = adj[k]
		nw[i] = wts[k]
	}
	copy(adj, na)
	copy(wts, nw)
}

// Hosts returns the vertex count.
func (g *Graph) Hosts() int { return len(g.hosts) }

// Edges returns the undirected edge count.
func (g *Graph) Edges() int { return g.edges }

// Degree returns how many mutual-contact neighbors a host has (0 for
// unknown hosts).
func (g *Graph) Degree(h flow.IP) int {
	v, ok := g.index[h]
	if !ok {
		return 0
	}
	return len(g.adj[v])
}

// Weight returns the edge weight between two hosts (0 if no edge): the
// shared-contact count, or the rounded destination-rarity sum when the
// graph was built with IDFWeights.
func (g *Graph) Weight(a, b flow.IP) int {
	va, ok := g.index[a]
	if !ok {
		return 0
	}
	vb, ok := g.index[b]
	if !ok {
		return 0
	}
	for i, n := range g.adj[va] {
		if n == int32(vb) {
			return int(g.wts[va][i])
		}
	}
	return 0
}
