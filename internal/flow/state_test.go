package flow

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randomSkewedRecords builds a stream that is only approximately
// start-ordered: each record's start may lag the frontier by up to skew.
func randomSkewedRecords(rng *rand.Rand, n int, skew time.Duration) []Record {
	ordered := randomOrderedRecords(rng, n)
	out := make([]Record, n)
	copy(out, ordered)
	for i := range out {
		out[i].Start = out[i].Start.Add(-time.Duration(rng.Int63n(int64(skew))))
		out[i].End = out[i].Start.Add(time.Second)
	}
	return out
}

// Snapshotting a stream extractor mid-stream and restoring into a fresh
// one must be invisible: feeding the remainder to both the original and
// the restored extractor yields identical features, counters, and
// windows — the property the checkpoint subsystem is built on.
func TestStreamStateRestoreIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const skew = 10 * time.Minute
	for trial := 0; trial < 5; trial++ {
		records := randomSkewedRecords(rng, 400, skew)
		cut := 100 + rng.Intn(200)

		orig := NewStreamExtractorSkew(FeatureOptions{}, skew)
		orig.CarryFirstSeen(true)
		for i := 0; i < cut; i++ {
			if err := orig.Add(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Seal a pane mid-stream so carried anchors are populated too.
		mid := records[cut/2].Start
		orig.ReleaseBefore(mid)
		orig.TakePane(Window{From: records[0].Start, To: mid})

		st := orig.State()
		restored := NewStreamExtractorSkew(FeatureOptions{}, skew)
		restored.CarryFirstSeen(true)
		if err := restored.RestoreState(st); err != nil {
			t.Fatal(err)
		}

		for i := cut; i < len(records); i++ {
			errA := orig.Add(&records[i])
			errB := restored.Add(&records[i])
			if (errA == nil) != (errB == nil) {
				t.Fatalf("trial %d: record %d: original err=%v, restored err=%v", trial, i, errA, errB)
			}
		}
		orig.Drain()
		restored.Drain()

		if !reflect.DeepEqual(orig.Snapshot(), restored.Snapshot()) {
			t.Fatalf("trial %d: features diverged after restore", trial)
		}
		if orig.Records() != restored.Records() || orig.Hosts() != restored.Hosts() ||
			orig.Pending() != restored.Pending() || orig.Window() != restored.Window() {
			t.Fatalf("trial %d: counters diverged: records %d/%d hosts %d/%d pending %d/%d",
				trial, orig.Records(), restored.Records(), orig.Hosts(), restored.Hosts(),
				orig.Pending(), restored.Pending())
		}
		if !reflect.DeepEqual(orig.anchors, restored.anchors) {
			t.Fatalf("trial %d: carried anchors diverged:\norig     %v\nrestored %v", trial, orig.anchors, restored.anchors)
		}
	}
}

// The snapshot must be a deep copy: mutating the live extractor after
// State() must not leak into the snapshot.
func TestStreamStateIsDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	records := randomOrderedRecords(rng, 100)
	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
	for i := 0; i < 50; i++ {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := se.State()
	before := *st
	beforeHosts := append([]HostState(nil), st.Hosts...)
	for i := 50; i < 100; i++ {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(st.Hosts, beforeHosts) || st.Count != before.Count {
		t.Fatal("snapshot mutated by later Add calls")
	}
}

// RestoreState must refuse a non-empty extractor.
func TestStreamStateRestoreRejectsNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	records := randomOrderedRecords(rng, 10)
	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
	for i := range records {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.RestoreState(&StreamState{}); err == nil {
		t.Fatal("RestoreState on a non-empty extractor did not fail")
	}
}

// Same transparency property for the sharded store, including the shard
// count mismatch error.
func TestShardedStateRestoreIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const skew = 10 * time.Minute
	records := randomSkewedRecords(rng, 600, skew)
	cut := 300

	orig := NewShardedExtractorSkew(FeatureOptions{}, 4, skew)
	for i := 0; i < cut; i++ {
		if err := orig.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := orig.State()

	if err := NewShardedExtractorSkew(FeatureOptions{}, 3, skew).RestoreState(st); err == nil {
		t.Fatal("restore into a store with a different shard count did not fail")
	}

	restored := NewShardedExtractorSkew(FeatureOptions{}, 4, skew)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(records); i++ {
		errA := orig.Add(&records[i])
		errB := restored.Add(&records[i])
		if (errA == nil) != (errB == nil) {
			t.Fatalf("record %d: original err=%v, restored err=%v", i, errA, errB)
		}
	}
	orig.Drain()
	restored.Drain()
	if !reflect.DeepEqual(orig.Snapshot(), restored.Snapshot()) {
		t.Fatal("sharded features diverged after restore")
	}
	if orig.Records() != restored.Records() || orig.Hosts() != restored.Hosts() || orig.Pending() != restored.Pending() {
		t.Fatal("sharded counters diverged after restore")
	}
}

// A pane must survive the round trip through its serializable state,
// including through MergePanes (the sliding-window path).
func TestPaneStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := randomOrderedRecords(rng, 300)
	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
	for i := 0; i < 150; i++ {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	mid := records[150].Start
	se.ReleaseBefore(mid)
	p1 := se.TakePane(Window{From: records[0].Start, To: mid})
	for i := 150; i < 300; i++ {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	se.Drain()
	p2 := se.TakePane(Window{From: mid, To: records[299].Start.Add(1)})

	r1 := NewPaneFromState(p1.State())
	r2 := NewPaneFromState(p2.State())
	if p1.Window() != r1.Window() || p1.Hosts() != r1.Hosts() {
		t.Fatal("pane metadata changed through the state round trip")
	}
	want := MergePanes(0, p1, p2)
	got := MergePanes(0, r1, r2)
	if got.Window() != want.Window() {
		t.Fatalf("merged windows differ: %v vs %v", got.Window(), want.Window())
	}
	wantF, gotF := want.Features(), got.Features()
	if len(wantF) != len(gotF) {
		t.Fatalf("merged host counts differ: %d vs %d", len(wantF), len(gotF))
	}
	for ip, wf := range wantF {
		if !featuresEqualModGapOrder(wf, gotF[ip]) {
			t.Fatalf("host %v merged features differ:\nwant %+v\ngot  %+v", ip, wf, gotF[ip])
		}
	}
}
