package overlay

import (
	"math/rand"
	"testing"
	"time"

	"plotters/internal/flow"
)

func t0() time.Time {
	return time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
}

func rec(src, dst flow.IP, at time.Time, state flow.ConnState) flow.Record {
	return flow.Record{
		Src: src, Dst: dst, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
		Start: at, End: at.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 100, State: state,
	}
}

func TestActiveHosts(t *testing.T) {
	internal := flow.MustParseSubnet("128.2.0.0/16")
	records := []flow.Record{
		rec(flow.MakeIP(128, 2, 0, 1), 9, t0(), flow.StateEstablished),
		rec(flow.MakeIP(128, 2, 0, 2), 9, t0(), flow.StateFailed),     // only failed: not active
		rec(flow.MakeIP(10, 0, 0, 1), 9, t0(), flow.StateEstablished), // external
		rec(flow.MakeIP(128, 2, 0, 3), 9, t0(), flow.StateEstablished),
		rec(flow.MakeIP(128, 2, 0, 1), 9, t0(), flow.StateEstablished), // duplicate
	}
	hosts := ActiveHosts(records, internal.Contains)
	if len(hosts) != 2 {
		t.Fatalf("active hosts = %v", hosts)
	}
	if hosts[0] != flow.MakeIP(128, 2, 0, 1) || hosts[1] != flow.MakeIP(128, 2, 0, 3) {
		t.Errorf("hosts = %v (want sorted)", hosts)
	}
	// Nil filter counts everyone.
	all := ActiveHosts(records, nil)
	if len(all) != 3 {
		t.Errorf("unfiltered hosts = %v", all)
	}
}

func TestRetime(t *testing.T) {
	traceDay := time.Date(2007, time.November, 1, 3, 30, 0, 0, time.UTC)
	records := []flow.Record{
		rec(1, 2, traceDay, flow.StateEstablished),
		rec(1, 2, traceDay.Add(5*time.Hour), flow.StateEstablished),
	}
	target := time.Date(2007, time.November, 9, 0, 0, 0, 0, time.UTC)
	out := Retime(records, target)
	if len(out) != 2 {
		t.Fatal("length changed")
	}
	want := time.Date(2007, time.November, 9, 3, 30, 0, 0, time.UTC)
	if !out[0].Start.Equal(want) {
		t.Errorf("retimed start = %v, want %v", out[0].Start, want)
	}
	if got := out[1].Start.Sub(out[0].Start); got != 5*time.Hour {
		t.Errorf("relative offset = %v", got)
	}
	// Input untouched.
	if !records[0].Start.Equal(traceDay) {
		t.Error("input mutated")
	}
	if Retime(nil, target) != nil {
		t.Error("empty input should return nil")
	}
}

func TestRewrite(t *testing.T) {
	records := []flow.Record{
		rec(1, 100, t0(), flow.StateEstablished),
		rec(2, 100, t0(), flow.StateEstablished),
	}
	out := Rewrite(records, Assignment{1: 50})
	if len(out) != 1 || out[0].Src != 50 || out[0].Dst != 100 {
		t.Errorf("rewrite = %v", out)
	}
	if records[0].Src != 1 {
		t.Error("input mutated")
	}
}

func TestMerge(t *testing.T) {
	a := []flow.Record{rec(1, 2, t0().Add(time.Minute), flow.StateEstablished)}
	b := []flow.Record{rec(3, 4, t0(), flow.StateEstablished)}
	out := Merge(a, b)
	if len(out) != 2 || out[0].Src != 3 || out[1].Src != 1 {
		t.Errorf("merge order wrong: %v", out)
	}
}

func TestOverlayEndToEnd(t *testing.T) {
	internal := flow.MustParseSubnet("128.2.0.0/16")
	window := flow.Window{From: t0(), To: t0().Add(6 * time.Hour)}

	// Base: four active internal hosts.
	var base []flow.Record
	for i := 1; i <= 4; i++ {
		base = append(base, rec(flow.MakeIP(128, 2, 0, byte(i)), 9, t0().Add(time.Duration(i)*time.Minute), flow.StateEstablished))
	}
	// A bot trace from a different day, 2 bots, flows inside and outside
	// the window's hours.
	traceDay := time.Date(2007, time.October, 20, 0, 0, 0, 0, time.UTC)
	trace := Trace{
		Label: "storm",
		Bots:  []flow.IP{flow.MakeIP(198, 18, 0, 1), flow.MakeIP(198, 18, 0, 2)},
		Records: []flow.Record{
			rec(flow.MakeIP(198, 18, 0, 1), 77, traceDay.Add(10*time.Hour), flow.StateEstablished),
			rec(flow.MakeIP(198, 18, 0, 2), 78, traceDay.Add(11*time.Hour), flow.StateFailed),
			rec(flow.MakeIP(198, 18, 0, 1), 77, traceDay.Add(2*time.Hour), flow.StateEstablished), // before window: dropped
		},
	}
	rng := rand.New(rand.NewSource(2))
	ov, err := Overlay(rng, base, window, internal.Contains, trace)
	if err != nil {
		t.Fatal(err)
	}
	// 4 base + 2 in-window bot flows.
	if len(ov.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(ov.Records))
	}
	if len(ov.BotHosts) != 2 {
		t.Fatalf("bot hosts = %v", ov.BotHosts)
	}
	for host, label := range ov.BotHosts {
		if !internal.Contains(host) {
			t.Errorf("bot assigned to non-internal host %v", host)
		}
		if label != "storm" {
			t.Errorf("label = %q", label)
		}
	}
	totalBotFlows := 0
	for _, n := range ov.BotFlows {
		totalBotFlows += n
	}
	if totalBotFlows != 2 {
		t.Errorf("bot flows = %d, want 2", totalBotFlows)
	}
	// Records are time-sorted.
	for i := 1; i < len(ov.Records); i++ {
		if ov.Records[i].Start.Before(ov.Records[i-1].Start) {
			t.Fatal("records not sorted")
		}
	}
}

func TestOverlayTooManyBots(t *testing.T) {
	internal := flow.MustParseSubnet("128.2.0.0/16")
	window := flow.Window{From: t0(), To: t0().Add(time.Hour)}
	base := []flow.Record{rec(flow.MakeIP(128, 2, 0, 1), 9, t0(), flow.StateEstablished)}
	trace := Trace{Label: "x", Bots: []flow.IP{1, 2}}
	rng := rand.New(rand.NewSource(3))
	if _, err := Overlay(rng, base, window, internal.Contains, trace); err == nil {
		t.Error("expected error: more bots than active hosts")
	}
}

func TestOverlayDistinctAcrossTraces(t *testing.T) {
	internal := flow.MustParseSubnet("128.2.0.0/16")
	window := flow.Window{From: t0(), To: t0().Add(time.Hour)}
	var base []flow.Record
	for i := 1; i <= 10; i++ {
		base = append(base, rec(flow.MakeIP(128, 2, 0, byte(i)), 9, t0(), flow.StateEstablished))
	}
	t1 := Trace{Label: "a", Bots: []flow.IP{1, 2, 3}}
	t2 := Trace{Label: "b", Bots: []flow.IP{4, 5, 6}}
	rng := rand.New(rand.NewSource(4))
	ov, err := Overlay(rng, base, window, internal.Contains, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.BotHosts) != 6 {
		t.Fatalf("hosts carrying bots = %d, want 6 (no host carries two bots)", len(ov.BotHosts))
	}
}
