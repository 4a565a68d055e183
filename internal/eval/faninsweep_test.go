package eval

import (
	"testing"

	"plotters/internal/community"
)

// FanInSweep totals each grid point's mutual-contact edges and rates over
// the suite days. Its edge total once came out of an assertion on the
// verdict that could fail silently and leave it 0.
func TestFanInSweep(t *testing.T) {
	_, suite := corpus(t)
	base := community.DefaultConfig()
	minShared, maxFanIn := []int{2, 4}, []int{32, 64}
	points, err := suite.FanInSweep(base, minShared, maxFanIn)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(minShared)*len(maxFanIn) {
		t.Fatalf("%d points, want %d", len(points), len(minShared)*len(maxFanIn))
	}
	at := func(ms, mf int) FanInPoint {
		for _, p := range points {
			if p.MinSharedContacts == ms && p.MaxFanIn == mf {
				return p
			}
		}
		t.Fatalf("no point (%d,%d) in %+v", ms, mf, points)
		return FanInPoint{}
	}
	if p := at(2, 64); p.Edges == 0 {
		t.Fatalf("the loosest point (2,64) built no edges: %+v", p)
	}
	// A higher edge bar keeps a subset of the pairs; a higher fan-in cap
	// counts more destinations toward every pair.
	for _, mf := range maxFanIn {
		if lo, hi := at(2, mf), at(4, mf); hi.Edges > lo.Edges {
			t.Errorf("MaxFanIn %d: %d edges at MinSharedContacts 4 > %d at 2", mf, hi.Edges, lo.Edges)
		}
	}
	for _, ms := range minShared {
		if lo, hi := at(ms, 32), at(ms, 64); hi.Edges < lo.Edges {
			t.Errorf("MinSharedContacts %d: %d edges at MaxFanIn 64 < %d at 32", ms, hi.Edges, lo.Edges)
		}
	}

	cfg := base
	cfg.Graph.MinSharedContacts, cfg.Graph.MaxFanIn = 4, 32
	det, err := community.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want FanInPoint
	for i := 0; i < suite.Days(); i++ {
		de, err := suite.Day(i)
		if err != nil {
			t.Fatal(err)
		}
		dn, err := det.Detect(de.Analysis.Source())
		if err != nil {
			t.Fatal(err)
		}
		want.Edges += dn.Community.GraphEdges
		want.Rates.Add(de.Tally(dn.Suspects, de.Analysis.Hosts()).Overall())
	}
	if got := at(4, 32); got.Edges != want.Edges || got.Rates != want.Rates {
		t.Errorf("point (4,32) = %d edges %+v, want %d edges %+v from a direct run", got.Edges, got.Rates, want.Edges, want.Rates)
	}
}
