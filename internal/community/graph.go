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
	"slices"

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
	hosts []flow.IP // ascending; a host's vertex is its position
	adj   [][]int32 // per-vertex neighbor lists, ascending, over one array
	wts   [][]int32 // shared-contact count per neighbor, parallel to adj
	edges int
}

// BuildGraph constructs the mutual-contact graph from per-host contact
// sets (each host's contacted destinations, in any order; sets, so
// repeats count once). It inverts the sets into one ascending posting
// list per destination, then counts shared contacts row by row in a
// dense accumulator: cost scales with the overlap present, not hosts².
func BuildGraph(contacts map[flow.IP][]flow.IP, cfg GraphConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{hosts: make([]flow.IP, 0, len(contacts))}
	total := 0
	for h, dsts := range contacts {
		g.hosts = append(g.hosts, h)
		total += len(dsts)
	}
	slices.Sort(g.hosts)
	n := len(g.hosts)

	// Invert: (destination, vertex) keys emitted in vertex order and
	// stably sorted by destination lay each destination's vertices out
	// contiguously and ascending, a host's repeats adjacent.
	keys := make([]uint64, 0, total)
	for v, h := range g.hosts {
		for _, dst := range contacts[h] {
			keys = append(keys, uint64(dst)<<32|uint64(v))
		}
	}
	keys = sortByDst(keys)

	// Postings: each destination's distinct vertices, dropped unless it
	// pairs hosts (fan-in >= 2) and is no popular service (fan-in <=
	// MaxFanIn). With IDFWeights each carries its rarity, summed in place
	// of 1, but the raw count still decides edge existence.
	post := make([]int32, 0, len(keys))
	postOff := []int32{0}
	var rarity []int64
	for i := 0; i < len(keys); {
		dst, start := keys[i]>>32, len(post)
		for ; i < len(keys) && keys[i]>>32 == dst; i++ {
			if v := int32(keys[i]); len(post) == start || post[len(post)-1] != v {
				post = append(post, v)
			}
		}
		fanIn := len(post) - start
		if fanIn < 2 || (cfg.MaxFanIn > 0 && fanIn > cfg.MaxFanIn) {
			post = post[:start]
			continue
		}
		postOff = append(postOff, int32(len(post)))
		if cfg.IDFWeights {
			rarity = append(rarity, int64(math.Round(math.Log(float64(n)/float64(fanIn))*idfScale)))
		}
	}

	// Each vertex's memberships, grouped by vertex: its position in each
	// posting it is in. Counting sort; order inside a group is free.
	type membership struct{ at, p int32 }
	memOff := make([]int32, n+1)
	for _, v := range post {
		memOff[v]++
	}
	for v := 1; v <= n; v++ {
		memOff[v] += memOff[v-1]
	}
	mem := make([]membership, len(post))
	for p := 0; p+1 < len(postOff); p++ {
		for at := postOff[p]; at < postOff[p+1]; at++ {
			memOff[post[at]]--
			mem[memOff[post[at]]] = membership{at, int32(p)}
		}
	}

	// Count row by row: vertex a meets every b after it in each of its
	// postings. Each row's surviving edges, packed b<<32 | weight, are
	// sorted, so edges come out in (a, b) order.
	cnt := make([]int32, n)
	var idf []int64
	if cfg.IDFWeights {
		idf = make([]int64, n)
	}
	var touched []int32
	var edges []uint64
	rowEnd := make([]int32, n)
	deg := make([]int32, n)
	for a := 0; a < n; a++ {
		for _, m := range mem[memOff[a]:memOff[a+1]] {
			for _, b := range post[m.at+1 : postOff[m.p+1]] {
				if cnt[b] == 0 {
					touched = append(touched, b)
				}
				cnt[b]++
				if idf != nil {
					idf[b] += rarity[m.p]
				}
			}
		}
		row := len(edges)
		for _, b := range touched {
			if int(cnt[b]) >= cfg.MinSharedContacts {
				w := cnt[b]
				if idf != nil {
					// Fixed-point (whole units would collapse most rarity
					// distinctions), clamped to 1 so a qualifying edge
					// votes even when every shared destination is
					// campus-wide popular (idf ≈ 0).
					w = max(int32(idf[b]), 1)
				}
				edges = append(edges, uint64(b)<<32|uint64(w))
				deg[a]++
				deg[b]++
			}
			cnt[b] = 0
			if idf != nil {
				idf[b] = 0
			}
		}
		touched = touched[:0]
		slices.Sort(edges[row:])
		rowEnd[a] = int32(len(edges))
	}
	g.edges = len(edges)

	// Rows carved from one array: a vertex's smaller neighbors arrive
	// from earlier rows, then its own row's larger ones, so rows ascend.
	nbr, wt := make([]int32, 2*len(edges)), make([]int32, 2*len(edges))
	g.adj, g.wts = make([][]int32, n), make([][]int32, n)
	for v, d := range deg {
		if d > 0 {
			g.adj[v], g.wts[v] = nbr[:0:d], wt[:0:d]
			nbr, wt = nbr[d:], wt[d:]
		}
	}
	row := int32(0)
	for a := range rowEnd {
		for _, e := range edges[row:rowEnd[a]] {
			b, w := int32(e>>32), int32(e)
			g.adj[a], g.wts[a] = append(g.adj[a], b), append(g.wts[a], w)
			g.adj[b], g.wts[b] = append(g.adj[b], int32(a)), append(g.wts[b], w)
		}
		row = rowEnd[a]
	}
	return g, nil
}

// sortByDst stably sorts keys by their high 32 bits, the destination:
// an LSD radix sort, one pass per byte. Linear in the keys, it keeps a
// live window's close about a sixth below slices.Sort's comparisons.
func sortByDst(keys []uint64) []uint64 {
	buf := make([]uint64, len(keys))
	for shift := 32; shift < 64; shift += 8 {
		var at [257]int
		for _, k := range keys {
			at[k>>shift&0xff+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for _, k := range keys {
			b := k >> shift & 0xff
			buf[at[b]] = k
			at[b]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// Hosts returns the vertex count.
func (g *Graph) Hosts() int { return len(g.hosts) }

// Edges returns the undirected edge count.
func (g *Graph) Edges() int { return g.edges }

// Degree returns how many mutual-contact neighbors a host has (0 for
// unknown hosts).
func (g *Graph) Degree(h flow.IP) int {
	if v, ok := slices.BinarySearch(g.hosts, h); ok {
		return len(g.adj[v])
	}
	return 0
}

// Weight returns the edge weight between two hosts (0 if no edge): the
// shared-contact count, or the rounded destination-rarity sum when the
// graph was built with IDFWeights.
func (g *Graph) Weight(a, b flow.IP) int {
	va, aok := slices.BinarySearch(g.hosts, a)
	vb, bok := slices.BinarySearch(g.hosts, b)
	if !aok || !bok {
		return 0
	}
	if i, ok := slices.BinarySearch(g.adj[va], int32(vb)); ok {
		return int(g.wts[va][i])
	}
	return 0
}
