package flow

import (
	"testing"
	"time"

	"plotters/internal/metrics"
)

// The extractor must report accepted records, skew rejects, the reorder
// buffer's high-water mark, and the distinct hosts tracked.
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
	se := NewStreamExtractorSkew(FeatureOptions{}, 10*time.Second).Metrics(reg)

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
	if got := snap.Counters["stream/records"]; got != 4 {
		t.Errorf("stream/records = %d, want 4", got)
	}
	if got := snap.Counters["stream/skew_drops"]; got != 1 {
		t.Errorf("stream/skew_drops = %d, want 1", got)
	}
	// Four accepted records were awaiting processing at once: the first
	// three buffered, and the frontier record that then released them.
	if got := snap.Gauges["stream/pending_highwater"]; got != 4 {
		t.Errorf("stream/pending_highwater = %d, want 4", got)
	}
	if got := snap.Gauges["stream/hosts"]; got != int64(se.Hosts()) || got != 2 {
		t.Errorf("stream/hosts = %d, want 2 (extractor says %d)", got, se.Hosts())
	}
}

// Without a registry the extractor must work exactly as before.
func TestStreamExtractorNilMetrics(t *testing.T) {
	t0 := time.Date(2010, time.June, 21, 8, 0, 0, 0, time.UTC)
	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
	r := Record{
		Src: MakeIP(128, 2, 0, 1), Dst: MakeIP(10, 0, 0, 9), SrcPort: 1, DstPort: 80,
		Proto: TCP, State: StateEstablished, Start: t0, End: t0.Add(time.Second),
		SrcPkts: 1, SrcBytes: 40,
	}
	if err := se.Add(&r); err != nil {
		t.Fatal(err)
	}
	if se.Hosts() != 1 || se.Records() != 1 {
		t.Errorf("hosts=%d records=%d, want 1/1", se.Hosts(), se.Records())
	}
}
