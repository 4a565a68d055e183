package community

import (
	"math"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// rendezvousRecords synthesizes a window where hosts 1..4 all contact
// the same 6 rendezvous destinations (a botnet community), while hosts
// 20..23 each talk to their own disjoint destinations (independent
// traders).
func rendezvousRecords() []flow.Record {
	base := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	var records []flow.Record
	add := func(src, dst uint32) {
		base = base.Add(time.Second)
		records = append(records, flow.Record{
			Src: ip(src), Dst: ip(dst),
			Start: base, End: base.Add(time.Second),
			Proto: flow.TCP, SrcBytes: 80, State: flow.StateEstablished,
		})
	}
	for bot := uint32(1); bot <= 4; bot++ {
		for peer := uint32(0); peer < 6; peer++ {
			add(bot, 900+peer)
		}
	}
	for trader := uint32(20); trader <= 23; trader++ {
		for peer := uint32(0); peer < 6; peer++ {
			add(trader, 2000+trader*100+peer)
		}
	}
	return records
}

func TestDetectorFlagsRendezvousCommunity(t *testing.T) {
	reg := metrics.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.Name() != Name {
		t.Errorf("Name() = %q, want %q", det.Name(), Name)
	}
	src := flow.ExtractFeatureSet(rendezvousRecords(), flow.FeatureOptions{}, flow.Window{})
	d, err := det.Detect(src)
	if err != nil {
		t.Fatal(err)
	}
	if d.Detector != Name {
		t.Errorf("Detection.Detector = %q, want %q", d.Detector, Name)
	}
	want := core.NewHostSet(ip(1), ip(2), ip(3), ip(4))
	if len(d.Suspects) != len(want) {
		t.Fatalf("suspects = %v, want %v", d.Suspects.Sorted(), want.Sorted())
	}
	for h := range want {
		if !d.Suspects[h] {
			t.Errorf("host %v missing from suspects", h)
		}
	}
	rep := d.Community
	if rep == nil || d.Paper != nil {
		t.Fatalf("Community = %v, Paper = %v; want a community report alone", rep, d.Paper)
	}
	if rep.GraphHosts != 8 {
		t.Errorf("GraphHosts = %d, want 8", rep.GraphHosts)
	}
	// The 4 bots form a clique: C(4,2) = 6 edges; traders contribute none.
	if rep.GraphEdges != 6 {
		t.Errorf("GraphEdges = %d, want 6", rep.GraphEdges)
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != ip(1) {
		t.Errorf("Flagged = %v, want [1]", rep.Flagged)
	}
	// Metrics must reflect the run.
	snapshot := map[string]int64{
		"community/graph_hosts": 8,
		"community/graph_edges": 6,
		"community/suspects":    4,
	}
	snap := reg.TakeSnapshot()
	for name, want := range snapshot {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("gauge %s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["community/communities"] == 0 {
		t.Error("gauge community/communities not set")
	}
	ran := map[string]int64{} // stage → times run
	for _, s := range snap.Stages {
		ran[s.Name] = s.Count
	}
	for _, stage := range []string{"community/build", "community/propagate", "community/score"} {
		if ran[stage] != 1 {
			t.Errorf("stage %s ran %d times, want 1", stage, ran[stage])
		}
	}
}

// A source without contact tracking must fail loudly, not silently
// return an empty verdict.
func TestDetectorRejectsContactlessSource(t *testing.T) {
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(flow.NewFeatureSet(nil, flow.Window{})); err == nil {
		t.Error("nil-contact FeatureSet accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Graph.MinSharedContacts = 0 },
		func(c *Config) { c.Graph.MaxFanIn = -1 },
		func(c *Config) { c.MaxIterations = -1 },
		func(c *Config) { c.MinCommunitySize = 0 },
		func(c *Config) { c.MinAvgDegree = -0.5 },
		func(c *Config) { c.MinAvgDegree = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
