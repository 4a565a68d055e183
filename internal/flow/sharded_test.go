package flow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// sealAll drains the store and seals everything it holds as one
// window — the one way features leave it. The bounds play no part here.
func sealAll(se *ShardedExtractor) *FeatureSet {
	se.Drain()
	return se.TakePane(Window{}).FeatureSet()
}

// paneOf is one shard's part of a pane as a window.
func paneOf(s paneShard) *FeatureSet {
	return (&Pane{shards: []paneShard{s}}).FeatureSet()
}

// batchDiff describes how a sealed window differs from batch extraction
// over records: host by host, then the contact sets ("" when it does
// not).
func batchDiff(got *FeatureSet, records []Record, opts FeatureOptions) string {
	want := ExtractFeatureSet(records, opts, Window{})
	if len(got.Features()) != len(want.Features()) {
		return fmt.Sprintf("host counts differ: %d sealed, %d batch", len(got.Features()), len(want.Features()))
	}
	for ip, bf := range want.Features() {
		if !reflect.DeepEqual(bf, got.Features()[ip]) {
			return fmt.Sprintf("host %v differs:\nbatch  %+v\nsealed %+v", ip, bf, got.Features()[ip])
		}
	}
	if !reflect.DeepEqual(got.Contacts(), want.Contacts()) {
		return "contact sets differ from batch"
	}
	return ""
}

// Property (the decoupling refactor's correctness contract): splitting
// any record stream across ANY shard count yields a sealed window
// identical to the batch extractor's. Hosts never straddle shards, so
// no cross-shard state can exist to diverge.
func TestShardedSnapshotPropertyMatchesBatch(t *testing.T) {
	prop := func(seed int64, sizeRaw uint16, shardRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(sizeRaw)%400
		shards := 1 + int(shardRaw)%16

		records := strictlyOrderedRecords(rng, n)
		se := NewShardedExtractorSkew(FeatureOptions{}, shards, 0)
		if se.Shards() != shards {
			t.Logf("seed %d: shards = %d, want %d", seed, se.Shards(), shards)
			return false
		}
		for i := range records {
			if err := se.Add(&records[i]); err != nil {
				t.Logf("seed %d: record rejected: %v", seed, err)
				return false
			}
		}
		hosts := se.Hosts()
		sealed := sealAll(se)
		if diff := batchDiff(sealed, records, FeatureOptions{}); diff != "" {
			t.Logf("seed %d (%d shards): %s", seed, shards, diff)
			return false
		}
		if hosts != sealed.Hosts() || se.Hosts() != 0 {
			t.Logf("seed %d: %d hosts before the seal, %d sealed, %d after", seed, hosts, sealed.Hosts(), se.Hosts())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Concurrent ingest across goroutines must converge to the batch
// features once drained: the per-shard reorder buffers put records back
// in start order regardless of which goroutine delivered them.
func TestShardedConcurrentAddMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	records := strictlyOrderedRecords(rng, 2000)
	span := records[len(records)-1].Start.Sub(records[0].Start)

	// Records interleave arbitrarily across feeders, so the store must
	// tolerate skew up to the whole span.
	se := NewShardedExtractorSkew(FeatureOptions{}, 4, span+time.Hour)
	const feeders = 4
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(records); i += feeders {
				if err := se.Add(&records[i]); err != nil {
					t.Errorf("feeder %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	se.Drain()
	if se.Pending() != 0 {
		t.Fatalf("%d records still pending after drain", se.Pending())
	}
	if diff := batchDiff(sealAll(se), records, FeatureOptions{}); diff != "" {
		t.Fatal(diff)
	}
}

// sortedGaps returns a host's interstitial samples in ascending order —
// MergePanes guarantees the multiset, not the ordering (pane-major, and
// boundary gaps in destination order), and every downstream consumer is
// order-insensitive.
func sortedGaps(f *HostFeatures) []float64 {
	out := append([]float64(nil), f.Interstitials...)
	sort.Float64s(out)
	return out
}

// featuresEqualModGapOrder compares two hosts' features exactly except
// for interstitial ordering.
func featuresEqualModGapOrder(a, b *HostFeatures) bool {
	if a.Host != b.Host || a.Flows != b.Flows ||
		a.FailedFlows != b.FailedFlows || a.BytesUploaded != b.BytesUploaded ||
		a.Peers != b.Peers || a.NewPeers != b.NewPeers ||
		!a.FirstSeen.Equal(b.FirstSeen) {
		return false
	}
	return reflect.DeepEqual(sortedGaps(a), sortedGaps(b))
}

// Sealing a stream into panes and merging them back must reproduce the
// batch extraction over the combined records: counters, de-duplicated
// peers, grace-anchored new-peer counts, and the exact multiset of
// interstitial gaps including the cross-pane boundary gaps — also for a
// destination that skips a pane and a host that never leaves its grace
// period (withTableEdgeCases).
func TestMergePanesMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 20; trial++ {
		records := withTableEdgeCases(strictlyOrderedRecords(rng, 600))
		start := records[0].Start
		end := records[len(records)-1].Start.Add(time.Nanosecond)

		// Seal into hour panes.
		se := NewShardedExtractorSkew(FeatureOptions{}, 1, 0)
		var panes []*Pane
		cut := start.Add(time.Hour)
		for i := range records {
			for !records[i].Start.Before(cut) {
				se.ReleaseBefore(cut)
				panes = append(panes, se.TakePane(Window{From: cut.Add(-time.Hour), To: cut}))
				cut = cut.Add(time.Hour)
			}
			if err := se.Add(&records[i]); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		se.ReleaseBefore(end)
		panes = append(panes, se.TakePane(Window{From: cut.Add(-time.Hour), To: cut}))

		merged := MergePanes(0, panes...)
		batchSet := ExtractFeatureSet(records, FeatureOptions{}, Window{})
		batch := batchSet.Features()
		checkTableEdgeCases(t, merged.Features())
		if !reflect.DeepEqual(merged.Contacts(), batchSet.Contacts()) {
			t.Fatalf("trial %d: merged contact sets differ from batch", trial)
		}
		if len(merged.Features()) != len(batch) {
			t.Fatalf("trial %d: host counts differ: %d vs %d",
				trial, len(merged.Features()), len(batch))
		}
		for ip, bf := range batch {
			mf := merged.Features()[ip]
			if mf == nil {
				t.Fatalf("trial %d: host %v missing from merge", trial, ip)
			}
			if !featuresEqualModGapOrder(bf, mf) {
				t.Fatalf("trial %d: host %v differs:\nbatch %+v\nmerge %+v", trial, ip, bf, mf)
			}
		}
	}
}

// A merge with a single populated pane must take the exact fast path:
// identical features, interstitial order included.
func TestMergePanesSinglePopulatedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	records := strictlyOrderedRecords(rng, 300)
	se := NewShardedExtractorSkew(FeatureOptions{}, 1, 0)
	for i := range records {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	w := Window{From: records[0].Start, To: records[len(records)-1].Start.Add(1)}
	pane := se.TakePane(w)
	empty := &Pane{window: Window{From: w.To, To: w.To.Add(time.Hour)}}

	merged := MergePanes(0, pane, empty)
	batch := ExtractFeatures(records, FeatureOptions{})
	if !reflect.DeepEqual(merged.Features(), batch) {
		t.Error("single-populated-pane merge is not bit-identical to batch")
	}
	mw := merged.Window()
	if !mw.From.Equal(w.From) || !mw.To.Equal(w.To.Add(time.Hour)) {
		t.Errorf("merged window = %v, want union of pane windows", mw)
	}
}

// ReleaseBefore must flush exactly the records below the boundary and
// then reject late arrivals below it, while records at or past it stay
// buffered for the next pane.
func TestReleaseBeforeSealsBoundary(t *testing.T) {
	se := NewShardedExtractorSkew(FeatureOptions{}, 1, 2*time.Hour)
	t0 := baseTime()
	boundary := t0.Add(time.Hour)
	early := mkRecord(1, 100, t0, 10, StateEstablished)
	late := mkRecord(2, 100, boundary.Add(time.Minute), 10, StateEstablished)
	for _, r := range []*Record{&early, &late} {
		if err := se.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if se.Hosts() != 0 || se.Pending() != 2 {
		t.Fatalf("pre-seal: hosts=%d pending=%d, want all buffered", se.Hosts(), se.Pending())
	}

	se.ReleaseBefore(boundary)
	if se.Hosts() != 1 || se.Pending() != 1 {
		t.Fatalf("post-seal: hosts=%d pending=%d, want the early record processed and the late one held",
			se.Hosts(), se.Pending())
	}
	if _, ok := se.TakePane(Window{From: t0, To: boundary}).FeatureSet().Features()[1]; !ok {
		t.Fatal("early record's host missing from the pane sealed at the boundary")
	}

	// A straggler below the sealed boundary must be rejected...
	straggler := mkRecord(3, 100, boundary.Add(-time.Minute), 10, StateEstablished)
	if err := se.Add(&straggler); err == nil {
		t.Error("record below the sealed boundary accepted")
	}
	// ...while one at the boundary is fine.
	onTime := mkRecord(4, 100, boundary, 10, StateEstablished)
	if err := se.Add(&onTime); err != nil {
		t.Errorf("record at the sealed boundary rejected: %v", err)
	}
}

// A host reappearing in a later pane starts its grace period over at its
// first activity in that pane: a fresh contact past the first pane's
// grace is still grace-exempt, because the warm-up restarted.
func TestGraceRestartsEachPane(t *testing.T) {
	t0 := baseTime()
	se := NewShardedExtractorSkew(FeatureOptions{NewPeerGrace: time.Hour}, 1, 0)
	r1 := mkRecord(1, 100, t0, 10, StateEstablished)
	if err := se.Add(&r1); err != nil {
		t.Fatal(err)
	}
	se.TakePane(Window{From: t0, To: t0.Add(time.Hour)})

	// Reappears two hours later with a fresh destination.
	r2 := mkRecord(1, 101, t0.Add(2*time.Hour), 10, StateEstablished)
	if err := se.Add(&r2); err != nil {
		t.Fatal(err)
	}
	f := sealAll(se).Features()[1]
	if !f.FirstSeen.Equal(r2.Start) {
		t.Errorf("FirstSeen = %v, want the second pane's first activity %v", f.FirstSeen, r2.Start)
	}
	if f.NewPeers != 0 {
		t.Errorf("NewPeers = %d, want 0 (warm-up restarted)", f.NewPeers)
	}
}

// TakePane on a sharded store must hand back every host exactly once
// (shard-disjoint union) and leave the store empty for the next pane.
func TestShardedTakePaneRotates(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	records := strictlyOrderedRecords(rng, 400)
	se := NewShardedExtractorSkew(FeatureOptions{}, 8, 0)
	for i := range records {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch := ExtractFeatures(records, FeatureOptions{})
	w := Window{From: records[0].Start, To: records[len(records)-1].Start.Add(1)}
	pane := se.TakePane(w)
	if pane.Hosts() != len(batch) {
		t.Fatalf("pane hosts = %d, want %d", pane.Hosts(), len(batch))
	}
	if diff := batchDiff(pane.FeatureSet(), records, FeatureOptions{}); diff != "" {
		t.Error(diff)
	}
	if se.Hosts() != 0 {
		t.Errorf("store still tracks %d hosts after TakePane", se.Hosts())
	}
	if pw := pane.Window(); pw != w {
		t.Errorf("pane window = %v, want %v", pw, w)
	}
}

// A pane sealed without spans — a tumbling window's — keeps no
// destination span at all, and its features are those of the same pane
// sealed with them, which MergePanes and State need.
func TestSealPaneSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	records := strictlyOrderedRecords(rng, 400)
	w := Window{From: records[0].Start, To: records[len(records)-1].Start.Add(1)}
	panes := make(map[bool]*Pane)
	for _, spans := range []bool{false, true} {
		se := NewShardedExtractorSkew(FeatureOptions{}, 4, 0)
		for i := range records {
			if err := se.Add(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
		panes[spans] = se.SealPane(w, spans)
		for i, s := range panes[spans].shards {
			if got := s.spans != nil; got != spans || (spans && len(s.spans) != len(s.dsts)) {
				t.Errorf("sealed with spans %v: shard %d holds %d spans for %d destinations", spans, i, len(s.spans), len(s.dsts))
			}
		}
	}
	if !reflect.DeepEqual(panes[false].FeatureSet().Features(), panes[true].FeatureSet().Features()) {
		t.Error("a pane sealed without spans has other features than one sealed with them")
	}
	if diff := batchDiff(panes[false].FeatureSet(), records, FeatureOptions{}); diff != "" {
		t.Error(diff)
	}
}
