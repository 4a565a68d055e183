package flow

import (
	"math/rand"
	"reflect"
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

// The streaming extractor must agree exactly with the batch extractor on
// any time-ordered stream.
func TestStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		records := randomOrderedRecords(rng, 500)
		batch := ExtractFeatures(records, FeatureOptions{})
		se := NewStreamExtractorSkew(FeatureOptions{}, 0)
		for i := range records {
			if err := se.Add(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
		stream := se.Snapshot()
		if len(batch) != len(stream) {
			t.Fatalf("trial %d: host counts differ: %d vs %d", trial, len(batch), len(stream))
		}
		for ip, bf := range batch {
			sf := stream[ip]
			if sf == nil {
				t.Fatalf("trial %d: host %v missing from stream", trial, ip)
			}
			if !reflect.DeepEqual(bf, sf) {
				t.Fatalf("trial %d: host %v features differ:\nbatch  %+v\nstream %+v", trial, ip, bf, sf)
			}
		}
		if se.Records() != 500 || se.Hosts() != len(stream) {
			t.Errorf("counters: records=%d hosts=%d", se.Records(), se.Hosts())
		}
	}
}

func TestStreamRejectsOutOfOrder(t *testing.T) {
	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
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
	se := NewStreamExtractorSkew(FeatureOptions{Hosts: func(ip IP) bool { return ip == 1 }}, 0)
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
	if se.Records() != 2 {
		t.Errorf("records = %d, want 2 (filter does not drop the count)", se.Records())
	}
}

func TestStreamGraceOverride(t *testing.T) {
	se := NewStreamExtractorSkew(FeatureOptions{NewPeerGrace: time.Minute}, 0)
	r1 := mkRecord(1, 100, baseTime(), 10, StateEstablished)
	r2 := mkRecord(1, 101, baseTime().Add(5*time.Minute), 10, StateEstablished)
	if err := se.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := se.Add(&r2); err != nil {
		t.Fatal(err)
	}
	f := se.Snapshot()[1]
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
		se := NewStreamExtractorSkew(FeatureOptions{}, 0)
		for j := range records {
			if err := se.Add(&records[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
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

		se := NewStreamExtractorSkew(FeatureOptions{}, 3*time.Minute)
		for i := range shuffled {
			if err := se.Add(&shuffled[i].rec); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		se.Drain()
		if se.Pending() != 0 {
			t.Fatalf("trial %d: %d records still pending after drain", trial, se.Pending())
		}
		batch := ExtractFeatures(records, FeatureOptions{})
		stream := se.Snapshot()
		if len(batch) != len(stream) {
			t.Fatalf("trial %d: host counts differ", trial)
		}
		for ip, bf := range batch {
			if !reflect.DeepEqual(bf, stream[ip]) {
				t.Fatalf("trial %d: host %v differs:\nbatch  %+v\nstream %+v", trial, ip, bf, stream[ip])
			}
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
	se := NewStreamExtractorSkew(FeatureOptions{}, time.Minute)
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

// Feature accounting invariants over arbitrary record streams: flow
// counts partition into successes and failures, every flow beyond a
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
			if hf.Flows != hf.SuccessfulFlows+hf.FailedFlows {
				return false
			}
			if len(hf.Interstitials) != hf.Flows-hf.Peers {
				return false
			}
			if hf.NewPeers > hf.Peers || hf.NewPeers < 0 {
				return false
			}
			if hf.LastSeen.Before(hf.FirstSeen) {
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
