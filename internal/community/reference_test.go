package community

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"plotters/internal/core"
	"plotters/internal/flow"
)

// refBuildGraph is the map-based graph construction BuildGraph replaced,
// kept as the reference the dense one must reproduce bit for bit: an
// inverted index map, a pair-count map (and an IDF map), and a sort per
// adjacency row. It takes each contact list as given, so it is a
// reference only for duplicate-free sets.
func refBuildGraph(contacts map[flow.IP][]flow.IP, cfg GraphConfig) *Graph {
	g := &Graph{hosts: make([]flow.IP, 0, len(contacts))}
	for h := range contacts {
		g.hosts = append(g.hosts, h)
	}
	sort.Slice(g.hosts, func(i, j int) bool { return g.hosts[i] < g.hosts[j] })

	inv := make(map[flow.IP][]int32)
	for i, h := range g.hosts {
		for _, dst := range contacts[h] {
			inv[dst] = append(inv[dst], int32(i))
		}
	}

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
	return g
}

// refPropagate is the map-based label propagation Propagate replaced: a
// vote map per vertex, grouping maps, and a sort of the communities.
func refPropagate(g *Graph, maxIterations int) []core.Community {
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
		for v := 0; v < n; v++ {
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
				if nb > v && member[nb] {
					c.InternalEdges++
					c.SharedContacts += int(g.wts[v][i])
				}
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Differential property: on duplicate-free contact sets the dense
// BuildGraph and Propagate reproduce the map-based reference exactly —
// the same adjacency rows and weights, the same communities — across
// every weighting, fan-in cap and edge threshold.
func TestDenseMatchesReference(t *testing.T) {
	inputs := []map[flow.IP][]flow.IP{benchContacts(1024), {}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		inputs = append(inputs, randomContacts(rng))
	}
	// The same inputs with each destination's low byte rotated to the
	// top, so destinations spread over the whole address space, as live
	// traffic has them, and many differ only in their top byte. Rotation
	// is a bijection, so every overlap survives.
	for _, contacts := range inputs[:len(inputs):len(inputs)] {
		spread := make(map[flow.IP][]flow.IP, len(contacts))
		for h, dsts := range contacts {
			spread[h] = make([]flow.IP, 0, len(dsts))
			for _, d := range dsts {
				spread[h] = append(spread[h], flow.IP(bits.RotateLeft32(uint32(d), 24)))
			}
		}
		inputs = append(inputs, spread)
	}
	for _, idf := range []bool{false, true} {
		for _, fanIn := range []int{0, 3, 16} {
			for _, minShared := range []int{1, 2, 4} {
				cfg := GraphConfig{MinSharedContacts: minShared, MaxFanIn: fanIn, IDFWeights: idf}
				t.Run(fmt.Sprintf("idf=%v/fanin=%d/min=%d", idf, fanIn, minShared), func(t *testing.T) {
					for i, contacts := range inputs {
						g, err := BuildGraph(contacts, cfg)
						if err != nil {
							t.Fatal(err)
						}
						ref := refBuildGraph(contacts, cfg)
						if !graphsEqual(g, ref) {
							t.Fatalf("input %d: graph differs from the reference (%d vs %d edges)", i, g.Edges(), ref.Edges())
						}
						if got, want := Propagate(g, 0), refPropagate(ref, 0); !reflect.DeepEqual(got, want) {
							t.Fatalf("input %d: communities differ from the reference:\n%v\nvs\n%v", i, got, want)
						}
					}
				})
			}
		}
	}
}
