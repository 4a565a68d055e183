package flow

import (
	"testing"
	"time"

	"plotters/internal/metrics"
)

// The store must report skew rejects, the reorder buffer's high-water
// mark, and the most hosts one shard tracked. The records it accepts
// are counted once, by the engine in front of it ("engine/records").
func TestStreamExtractorMetrics(t *testing.T) {
	t0 := time.Date(2010, time.June, 21, 8, 0, 0, 0, time.UTC)
	rec := func(src IP, at time.Duration) *Record {
		return &Record{
			Src: src, Dst: MakeIP(10, 0, 0, 9), SrcPort: 1234, DstPort: 80,
			Proto: TCP, State: StateEstablished,
			Start: t0.Add(at), End: t0.Add(at + time.Second),
			SrcPkts: 1, SrcBytes: 40,
		}
	}

	reg := metrics.New()
	se := NewShardedExtractorSkew(FeatureOptions{}, 1, 10*time.Second).Metrics(reg)

	// Three records inside the skew window buffer up (high water = 3),
	// from two distinct hosts.
	for _, r := range []*Record{
		rec(MakeIP(128, 2, 0, 1), 5*time.Second),
		rec(MakeIP(128, 2, 0, 1), 2*time.Second),
		rec(MakeIP(128, 2, 0, 2), 4*time.Second),
	} {
		if err := se.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	// Advancing the frontier far ahead releases them all...
	if err := se.Add(rec(MakeIP(128, 2, 0, 1), time.Minute)); err != nil {
		t.Fatal(err)
	}
	// ...after which a record behind the watermark is a skew drop.
	if err := se.Add(rec(MakeIP(128, 2, 0, 3), 3*time.Second)); err == nil {
		t.Fatal("expected a skew rejection")
	}
	se.Drain()

	snap := reg.TakeSnapshot()
	if got := snap.Counters["stream/skew_drops"]; got != 1 {
		t.Errorf("stream/skew_drops = %d, want 1", got)
	}
	// Four accepted records were awaiting processing at once: the first
	// three buffered, and the frontier record that then released them.
	if got := snap.Gauges["stream/pending_highwater"]; got != 4 {
		t.Errorf("stream/pending_highwater = %d, want 4", got)
	}
	if got := snap.Gauges["sharded/hosts_highwater"]; got != int64(se.Hosts()) || got != 2 {
		t.Errorf("sharded/hosts_highwater = %d, want 2 (store says %d)", got, se.Hosts())
	}
}

// Without a registry the store must work exactly as before.
func TestStreamExtractorNilMetrics(t *testing.T) {
	t0 := time.Date(2010, time.June, 21, 8, 0, 0, 0, time.UTC)
	se := NewShardedExtractorSkew(FeatureOptions{}, 1, 0)
	r := Record{
		Src: MakeIP(128, 2, 0, 1), Dst: MakeIP(10, 0, 0, 9), SrcPort: 1, DstPort: 80,
		Proto: TCP, State: StateEstablished, Start: t0, End: t0.Add(time.Second),
		SrcPkts: 1, SrcBytes: 40,
	}
	if err := se.Add(&r); err != nil {
		t.Fatal(err)
	}
	if se.Hosts() != 1 {
		t.Errorf("hosts = %d, want 1", se.Hosts())
	}
	if f := sealAll(se).Features()[r.Src]; f == nil || f.Flows != 1 {
		t.Errorf("sealed pane holds %+v, want the one flow", f)
	}
}

// A host whose first records are folded by ReleaseBefore or Drain, not
// by an Add, still counts toward sharded/hosts_highwater: the gauge is
// published wherever a host's slot is opened.
func TestHostsHighwaterCountsReleasedHosts(t *testing.T) {
	t0 := time.Date(2010, time.June, 21, 8, 0, 0, 0, time.UTC)
	rec := func(src IP, at time.Duration) *Record {
		return &Record{
			Src: src, Dst: MakeIP(10, 0, 0, 9), Proto: TCP, State: StateEstablished,
			Start: t0.Add(at), End: t0.Add(at + time.Second),
		}
	}
	for _, seal := range []string{"ReleaseBefore", "Drain"} {
		reg := metrics.New()
		se := NewShardedExtractorSkew(FeatureOptions{}, 1, 10*time.Second).Metrics(reg)
		for _, r := range []*Record{rec(MakeIP(128, 2, 0, 1), time.Second), rec(MakeIP(128, 2, 0, 2), 2*time.Second)} {
			if err := se.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if seal == "Drain" {
			se.Drain()
		} else {
			se.ReleaseBefore(t0.Add(5 * time.Second))
		}
		highWater := func() int64 { return reg.TakeSnapshot().Gauges["sharded/hosts_highwater"] }
		if hw := highWater(); se.Hosts() != 2 || hw != 2 {
			t.Errorf("after %s: %d hosts, sharded/hosts_highwater = %d, want 2 and 2", seal, se.Hosts(), hw)
		}
		se.TakePane(Window{From: t0, To: t0.Add(5 * time.Second)})
		if hw := highWater(); hw != 2 {
			t.Errorf("after %s and TakePane: sharded/hosts_highwater = %d, want 2", seal, hw)
		}
	}
}
