package flow

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// randomOrderedRecords builds a time-ordered random record stream.
func randomOrderedRecords(rng *rand.Rand, n int) []Record {
	at := baseTime()
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		state := StateEstablished
		if rng.Intn(3) == 0 {
			state = StateFailed
		}
		out = append(out, Record{
			Src: IP(1 + rng.Intn(5)), Dst: IP(100 + rng.Intn(20)),
			SrcPort: 4000, DstPort: 80, Proto: TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1,
			SrcBytes: uint64(rng.Intn(5000)), DstBytes: 100,
			State: state,
		})
		at = at.Add(time.Duration(rng.Intn(120)) * time.Second)
	}
	return out
}

// The streaming store must agree exactly with the batch extractor on
// any time-ordered stream.
func TestStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		records := randomOrderedRecords(rng, 500)
		se := NewShardedExtractorSkew(FeatureOptions{}, 1, 0)
		for i := range records {
			if err := se.Add(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if diff := batchDiff(sealAll(se), records, FeatureOptions{}); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

func TestStreamRejectsOutOfOrder(t *testing.T) {
	se := NewShardedExtractorSkew(FeatureOptions{}, 1, 0)
	r1 := mkRecord(1, 2, baseTime().Add(time.Minute), 10, StateEstablished)
	r2 := mkRecord(1, 2, baseTime(), 10, StateEstablished)
	if err := se.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := se.Add(&r2); err == nil {
		t.Error("out-of-order record accepted")
	}
	// Equal timestamps are fine.
	r3 := mkRecord(1, 3, baseTime().Add(time.Minute), 10, StateEstablished)
	if err := se.Add(&r3); err != nil {
		t.Errorf("equal-timestamp record rejected: %v", err)
	}
}

func TestStreamHostFilter(t *testing.T) {
	se := NewShardedExtractorSkew(FeatureOptions{Hosts: func(ip IP) bool { return ip == 1 }}, 1, 0)
	r1 := mkRecord(1, 2, baseTime(), 10, StateEstablished)
	r2 := mkRecord(9, 2, baseTime().Add(time.Second), 10, StateEstablished)
	if err := se.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := se.Add(&r2); err != nil {
		t.Fatal(err)
	}
	if se.Hosts() != 1 {
		t.Errorf("hosts = %d, want 1 (filtered)", se.Hosts())
	}
}

func TestStreamGraceOverride(t *testing.T) {
	se := NewShardedExtractorSkew(FeatureOptions{NewPeerGrace: time.Minute}, 1, 0)
	r1 := mkRecord(1, 100, baseTime(), 10, StateEstablished)
	r2 := mkRecord(1, 101, baseTime().Add(5*time.Minute), 10, StateEstablished)
	if err := se.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := se.Add(&r2); err != nil {
		t.Fatal(err)
	}
	f := sealAll(se).Features()[1]
	if f.NewPeers != 1 {
		t.Errorf("NewPeers = %d, want 1 with 1-minute grace", f.NewPeers)
	}
}

func BenchmarkStreamExtractor(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	records := randomOrderedRecords(rng, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := newShardExtractor(FeatureOptions{}, 0)
		for j := range records {
			if err := se.Add(&records[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamExtractorSkew is extraction as the live path runs it: a
// day-shaped feed — 400 hosts, ~850 flows and ~180 peers each over six
// hours — arriving up to 5 minutes out of start order, through a fresh
// store shard at MaxSkew 5 m and a Drain. One op is the whole feed;
// ns/record is the number to compare.
func BenchmarkStreamExtractorSkew(b *testing.B) {
	const maxSkew = 5 * time.Minute
	feed := dayFeed(400, 6*time.Hour, maxSkew, dayHostShape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := newShardExtractor(FeatureOptions{}, maxSkew)
		for j := range feed {
			if err := se.Add(&feed[j].rec); err != nil {
				b.Fatal(err)
			}
		}
		se.Drain()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(feed)), "ns/record")
}

// dayHostShape is a host of the day-shaped feed: 20–339 peers and
// 100–1,599 flows.
func dayHostShape(rng *rand.Rand) (peers, flows int) {
	return 20 + rng.Intn(320), 100 + rng.Intn(1500)
}

// dayFeed builds a seeded feed of hosts initiators, each with the peers
// and flows shape draws, starting uniformly over span and arriving in
// export order: each record up to maxSkew after its start, as a monitor
// exports a flow when it ends.
func dayFeed(hosts int, span, maxSkew time.Duration, shape func(*rand.Rand) (peers, flows int)) []keyedRecord {
	rng := rand.New(rand.NewSource(47))
	var feed []keyedRecord
	for h := 0; h < hosts; h++ {
		src := IP(0x80020000 + h)
		peers, flows := shape(rng)
		for n := flows; n > 0; n-- {
			start := baseTime().Add(time.Duration(rng.Int63n(int64(span)))).Truncate(time.Millisecond)
			state := StateEstablished
			if rng.Intn(5) == 0 {
				state = StateFailed
			}
			r := mkRecord(src, IP(0x0A000000+h<<10+rng.Intn(peers)), start, uint64(40+rng.Intn(4000)), state)
			feed = append(feed, keyedRecord{rec: r, key: start.Add(time.Duration(rng.Int63n(int64(maxSkew))))})
		}
	}
	slices.SortFunc(feed, func(a, b keyedRecord) int { return a.key.Compare(b.key) })
	return feed
}

// A stream shuffled within a bounded skew must, with a matching MaxSkew
// and a final Drain, produce exactly the batch extractor's features.
func TestStreamSkewMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 10; trial++ {
		records := randomOrderedRecords(rng, 400)
		// Shuffle each record by up to ±60s of arrival displacement:
		// perturb a copy's order key, sort by it.
		shuffled := make([]keyedRecord, len(records))
		for i, r := range records {
			shuffled[i] = keyedRecord{rec: r, key: r.Start.Add(time.Duration(rng.Intn(121)-60) * time.Second)}
		}
		sortKeyed(shuffled)

		se := NewShardedExtractorSkew(FeatureOptions{}, 1, 3*time.Minute)
		for i := range shuffled {
			if err := se.Add(&shuffled[i].rec); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		se.Drain()
		if se.Pending() != 0 {
			t.Fatalf("trial %d: %d records still pending after drain", trial, se.Pending())
		}
		if diff := batchDiff(sealAll(se), records, FeatureOptions{}); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

// keyedRecord pairs a record with its (perturbed) arrival key.
type keyedRecord struct {
	rec Record
	key time.Time
}

func sortKeyed(ks []keyedRecord) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j].key.Before(ks[j-1].key); j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func TestStreamSkewRejectsTooLate(t *testing.T) {
	se := NewShardedExtractorSkew(FeatureOptions{}, 1, time.Minute)
	r1 := mkRecord(1, 2, baseTime().Add(10*time.Minute), 10, StateEstablished)
	r2 := mkRecord(1, 2, baseTime().Add(20*time.Minute), 10, StateEstablished)
	if err := se.Add(&r1); err != nil {
		t.Fatal(err)
	}
	// r2 advances the watermark past r1, which gets processed.
	if err := se.Add(&r2); err != nil {
		t.Fatal(err)
	}
	if se.Hosts() != 1 {
		t.Fatalf("r1 not yet processed (hosts=%d)", se.Hosts())
	}
	// A record older than anything already processed must be rejected.
	late := mkRecord(1, 2, baseTime(), 10, StateEstablished)
	if err := se.Add(&late); err == nil {
		t.Error("too-late record accepted")
	}
	// But a record between released and the watermark is still fine.
	mid := mkRecord(1, 3, baseTime().Add(15*time.Minute), 10, StateEstablished)
	if err := se.Add(&mid); err != nil {
		t.Errorf("in-window record rejected: %v", err)
	}
}

// Feature accounting invariants over arbitrary record streams: failed
// flows are a share of all flows, every flow beyond a
// destination's first contributes exactly one interstitial sample, and
// new peers never exceed total peers.
func TestFeatureInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomOrderedRecords(rng, int(n))
		feats := ExtractFeatures(records, FeatureOptions{})
		totalFlows := 0
		for _, hf := range feats {
			totalFlows += hf.Flows
			if hf.FailedFlows < 0 || hf.FailedFlows > hf.Flows {
				return false
			}
			if len(hf.Interstitials) != hf.Flows-hf.Peers {
				return false
			}
			if hf.NewPeers > hf.Peers || hf.NewPeers < 0 {
				return false
			}
			for _, gap := range hf.Interstitials {
				if gap < 0 {
					return false
				}
			}
		}
		return totalFlows == len(records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
