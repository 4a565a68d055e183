package community

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"plotters/internal/core"
	"plotters/internal/flow"
)

// mkGraph builds a Graph directly from an edge list (host, host, weight)
// so tie configurations can be constructed exactly.
func mkGraph(t *testing.T, hosts []uint32, edges [][3]uint32) *Graph {
	t.Helper()
	g := &Graph{index: make(map[flow.IP]int, len(hosts))}
	for _, h := range hosts {
		g.hosts = append(g.hosts, ip(h))
	}
	for i := 1; i < len(g.hosts); i++ {
		if g.hosts[i] <= g.hosts[i-1] {
			t.Fatalf("mkGraph hosts must be ascending and unique")
		}
	}
	for i, h := range g.hosts {
		g.index[h] = i
	}
	g.adj = make([][]int32, len(g.hosts))
	g.wts = make([][]int32, len(g.hosts))
	for _, e := range edges {
		a, aok := g.index[ip(e[0])]
		b, bok := g.index[ip(e[1])]
		if !aok || !bok || a == b {
			t.Fatalf("mkGraph bad edge %v", e)
		}
		g.adj[a] = append(g.adj[a], int32(b))
		g.wts[a] = append(g.wts[a], int32(e[2]))
		g.adj[b] = append(g.adj[b], int32(a))
		g.wts[b] = append(g.wts[b], int32(e[2]))
		g.edges++
	}
	for v := range g.adj {
		sortAdj(g.adj[v], g.wts[v])
	}
	return g
}

// members flattens communities to label -> sorted members for compact
// expectations.
func members(cs []core.Community) map[uint32][]uint32 {
	out := make(map[uint32][]uint32, len(cs))
	for _, c := range cs {
		ms := make([]uint32, len(c.Members))
		for i, m := range c.Members {
			ms[i] = uint32(m)
		}
		out[uint32(c.Label)] = ms
	}
	return out
}

// Known tie configurations must resolve identically on every run: equal
// neighbor votes adopt the smallest label, oscillation-prone structures
// still settle deterministically under the iteration cap.
func TestPropagateDeterministicTies(t *testing.T) {
	cases := []struct {
		name  string
		hosts []uint32
		edges [][3]uint32
		want  map[uint32][]uint32
	}{
		{
			// A path 1-2-3 with equal weights: vertex 2 sees labels
			// {1,3} tied, adopts 1; then 3 follows.
			name:  "path tie resolves to smallest label",
			hosts: []uint32{1, 2, 3},
			edges: [][3]uint32{{1, 2, 5}, {2, 3, 5}},
			want:  map[uint32][]uint32{1: {1, 2, 3}},
		},
		{
			// Two triangles bridged by one weak edge stay two
			// communities: the bridge vote (1) never outweighs the
			// in-triangle votes (2 each).
			name:  "bridged triangles stay separate",
			hosts: []uint32{1, 2, 3, 10, 11, 12},
			edges: [][3]uint32{
				{1, 2, 4}, {2, 3, 4}, {1, 3, 4},
				{10, 11, 4}, {11, 12, 4}, {10, 12, 4},
				{3, 10, 1},
			},
			want: map[uint32][]uint32{1: {1, 2, 3}, 10: {10, 11, 12}},
		},
		{
			// A 4-cycle is the classic label-propagation oscillator
			// under synchronous updates; the sequential sweep collapses
			// it to one community immediately.
			name:  "four-cycle does not oscillate",
			hosts: []uint32{1, 2, 3, 4},
			edges: [][3]uint32{{1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 1, 1}},
			want:  map[uint32][]uint32{1: {1, 2, 3, 4}},
		},
		{
			// Weight beats count: host 5 has two light edges into the
			// 1-community but one heavy edge to 9 — the weighted vote
			// pulls it to 9's side.
			name:  "weighted vote wins",
			hosts: []uint32{1, 2, 5, 9},
			edges: [][3]uint32{{1, 2, 9}, {1, 5, 1}, {2, 5, 1}, {5, 9, 5}},
			want:  map[uint32][]uint32{1: {1, 2}, 5: {5, 9}},
		},
		{
			// Isolated vertices stay singletons.
			name:  "isolates are singletons",
			hosts: []uint32{1, 2, 7},
			edges: [][3]uint32{{1, 2, 3}},
			want:  map[uint32][]uint32{1: {1, 2}, 7: {7}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mkGraph(t, tc.hosts, tc.edges)
			ref := Propagate(g, 0)
			if got := members(ref); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("communities = %v, want %v", got, tc.want)
			}
			for run := 0; run < 50; run++ {
				if again := Propagate(g, 0); !reflect.DeepEqual(again, ref) {
					t.Fatalf("run %d diverged:\n%v\nvs\n%v", run, again, ref)
				}
			}
		})
	}
}

// Propagation is sequential by construction, so the partition must be
// identical at every GOMAXPROCS setting, and concurrent Propagate calls
// on one shared graph must not race (the -race matrix runs this test).
func TestPropagateParallelCallsAgree(t *testing.T) {
	g := mkGraph(t, []uint32{1, 2, 3, 10, 11, 12},
		[][3]uint32{
			{1, 2, 4}, {2, 3, 4}, {1, 3, 4},
			{10, 11, 4}, {11, 12, 4}, {10, 12, 4},
			{3, 10, 1},
		})
	ref := Propagate(g, 0)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		results := make([][]core.Community, 8)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = Propagate(g, 0)
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, r := range results {
			if !reflect.DeepEqual(r, ref) {
				t.Fatalf("GOMAXPROCS=%d goroutine %d diverged:\n%v\nvs\n%v", procs, i, r, ref)
			}
		}
	}
}

// Community scoring accessors on hand-built communities.
func TestCommunityScores(t *testing.T) {
	g := mkGraph(t, []uint32{1, 2, 3}, [][3]uint32{{1, 2, 4}, {2, 3, 4}, {1, 3, 4}})
	cs := Propagate(g, 0)
	if len(cs) != 1 {
		t.Fatalf("communities = %d, want 1", len(cs))
	}
	c := cs[0]
	if c.InternalEdges != 3 || c.SharedContacts != 12 {
		t.Errorf("InternalEdges=%d SharedContacts=%d, want 3 and 12", c.InternalEdges, c.SharedContacts)
	}
	if c.AvgDegree() != 2 {
		t.Errorf("AvgDegree() = %v, want 2", c.AvgDegree())
	}
	if c.AvgSharedContacts() != 4 {
		t.Errorf("AvgSharedContacts() = %v, want 4", c.AvgSharedContacts())
	}
	var zero core.Community
	if zero.AvgDegree() != 0 || zero.AvgSharedContacts() != 0 {
		t.Error("zero community must score 0")
	}
}
