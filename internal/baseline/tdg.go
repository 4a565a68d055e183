// Package baseline implements the alternative detection approaches the
// paper positions itself against (§II), so FindPlotters can be compared
// head-to-head on the same traffic:
//
//   - TDG: traffic dispersion graphs (Iliofotou et al., IMC 2007) —
//     graph-level P2P *traffic* identification. Flags P2P hosts, both
//     Traders and Plotters, without separating them; the paper's §II
//     cites the Jelasity & Bilicki analysis of its evadability.
//   - Persistence: persistent/regular connections to the same
//     destination atoms (Giroire et al., RAID 2009) — centralized-C&C
//     detection requiring whitelists, which the paper notes is "not
//     suitable for detecting Plotters that communicate over P2P".
//   - FailedConn: the coarse failed-connection P2P identifier (Collins &
//     Reiter, ESORICS 2006; Bartlett et al.) that the paper adopts as its
//     reduction step, run standalone as a detector.
//
// None of these separates Traders from Plotters; the eval harness
// contrasts their output with FindPlotters' to reproduce the paper's
// motivating claim.
package baseline

import (
	"fmt"
	"sort"

	"plotters/internal/flow"
)

// TDGConfig parameterizes the traffic-dispersion-graph detector.
type TDGConfig struct {
	// MinAvgDegree is the component average-degree threshold: P2P
	// overlays produce sparse but broad graphs whose average degree
	// exceeds client-server traffic's.
	MinAvgDegree float64
	// MinInOutFraction is the threshold on the fraction of component
	// nodes with both incoming and outgoing edges — the "InO" metric of
	// the TDG literature; P2P peers both accept and initiate.
	MinInOutFraction float64
	// MinComponentSize ignores trivially small components.
	MinComponentSize int
}

// DefaultTDGConfig mirrors the published operating ranges.
func DefaultTDGConfig() TDGConfig {
	return TDGConfig{
		MinAvgDegree:     2.8,
		MinInOutFraction: 0.01,
		MinComponentSize: 10,
	}
}

// Validate checks the configuration.
func (c *TDGConfig) Validate() error {
	if c.MinAvgDegree <= 0 {
		return fmt.Errorf("baseline: MinAvgDegree must be positive, got %v", c.MinAvgDegree)
	}
	if c.MinInOutFraction < 0 || c.MinInOutFraction > 1 {
		return fmt.Errorf("baseline: MinInOutFraction %v outside [0,1]", c.MinInOutFraction)
	}
	if c.MinComponentSize < 2 {
		return fmt.Errorf("baseline: MinComponentSize must be >= 2, got %d", c.MinComponentSize)
	}
	return nil
}

// TDGResult is the detector's outcome.
type TDGResult struct {
	// P2PHosts are the internal hosts that belong to a component judged
	// P2P-like.
	P2PHosts map[flow.IP]bool
	// Components summarizes every analyzed component.
	Components []TDGComponent
}

// TDGComponent is one connected component of the dispersion graph.
type TDGComponent struct {
	Nodes         int
	Edges         int
	AvgDegree     float64
	InOutFraction float64
	// P2P reports whether the component passed both thresholds.
	P2P bool
	// InternalHosts counts monitored members.
	InternalHosts int
}

// TDG builds per-destination-port traffic dispersion graphs — the TDG
// literature graphs each application (port) separately, since the full
// border graph is one giant star-dominated component — and flags the
// internal members of components whose shape is P2P-like: nodes are
// endpoints, a directed edge connects initiator to responder of at least
// one successful flow. internal selects monitored addresses (nil = all).
func TDG(records []flow.Record, internal func(flow.IP) bool, cfg TDGConfig) (*TDGResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	byPort := make(map[uint16][]flow.Record)
	for i := range records {
		byPort[records[i].DstPort] = append(byPort[records[i].DstPort], records[i])
	}
	ports := make([]uint16, 0, len(byPort))
	for p := range byPort {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })

	result := &TDGResult{P2PHosts: make(map[flow.IP]bool)}
	for _, port := range ports {
		sub, err := tdgOnePort(byPort[port], internal, cfg)
		if err != nil {
			return nil, err
		}
		for h := range sub.P2PHosts {
			result.P2PHosts[h] = true
		}
		result.Components = append(result.Components, sub.Components...)
	}
	return result, nil
}

// tdgOnePort analyzes the dispersion graph of one port's traffic.
func tdgOnePort(records []flow.Record, internal func(flow.IP) bool, cfg TDGConfig) (*TDGResult, error) {
	type edge struct{ a, b flow.IP }
	edges := make(map[edge]bool)
	hasOut := make(map[flow.IP]bool)
	hasIn := make(map[flow.IP]bool)
	parent := make(map[flow.IP]flow.IP)

	var find func(x flow.IP) flow.IP
	find = func(x flow.IP) flow.IP {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	add := func(x flow.IP) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	union := func(a, b flow.IP) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	for i := range records {
		r := &records[i]
		if r.Failed() {
			continue // the TDG literature graphs observed conversations
		}
		add(r.Src)
		add(r.Dst)
		union(r.Src, r.Dst)
		edges[edge{r.Src, r.Dst}] = true
		hasOut[r.Src] = true
		hasIn[r.Dst] = true
	}

	// Group nodes by component root.
	members := make(map[flow.IP][]flow.IP)
	for node := range parent {
		root := find(node)
		members[root] = append(members[root], node)
	}
	edgeCount := make(map[flow.IP]int)
	for e := range edges {
		edgeCount[find(e.a)]++
	}

	result := &TDGResult{P2PHosts: make(map[flow.IP]bool)}
	for _, root := range flow.SortedHosts(members) {
		nodes := members[root]
		if len(nodes) < cfg.MinComponentSize {
			continue
		}
		comp := TDGComponent{Nodes: len(nodes), Edges: edgeCount[root]}
		comp.AvgDegree = 2 * float64(comp.Edges) / float64(comp.Nodes)
		inOut := 0
		for _, n := range nodes {
			if hasIn[n] && hasOut[n] {
				inOut++
			}
			if internal == nil || internal(n) {
				comp.InternalHosts++
			}
		}
		comp.InOutFraction = float64(inOut) / float64(comp.Nodes)
		comp.P2P = comp.AvgDegree >= cfg.MinAvgDegree && comp.InOutFraction >= cfg.MinInOutFraction
		if comp.P2P {
			for _, n := range nodes {
				if internal == nil || internal(n) {
					result.P2PHosts[n] = true
				}
			}
		}
		result.Components = append(result.Components, comp)
	}
	return result, nil
}
