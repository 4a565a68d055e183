package flow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// strictlyOrderedRecords builds a random stream with strictly increasing
// start times. Distinct starts make the batch/stream comparison exact:
// with ties, the pooled Interstitials order would depend on which
// equal-start record is processed first, an ambiguity the feature
// semantics do not define.
func strictlyOrderedRecords(rng *rand.Rand, n int) []Record {
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
		at = at.Add(time.Duration(1+rng.Intn(90)) * time.Second)
	}
	return out
}

// Two hosts that pin the per-destination table's edges, on half-second
// offsets so their starts never tie with strictlyOrderedRecords' whole
// seconds.
const (
	skipPaneHost IP = 50 // contacts skipPaneDst in hours 1 and 3, not 2
	skipPaneDst  IP = 900
	graceHost    IP = 51 // every record inside its own NewPeerGrace
)

// withTableEdgeCases merges the two edge-case hosts into a strictly
// ordered stream that starts at baseTime. skipPaneHost's three flows to
// one destination leave exactly two gaps, 2 min and 1 h 58 min; cut into
// hour panes, the second is a boundary gap that has to reach over an
// empty pane (pane 3's first contact minus pane 1's last start).
func withTableEdgeCases(records []Record) []Record {
	at := func(d time.Duration) time.Time { return baseTime().Add(d + 500*time.Millisecond) }
	out := append([]Record(nil), records...)
	for _, e := range []struct {
		src, dst IP
		start    time.Time
	}{
		{skipPaneHost, skipPaneDst, at(10 * time.Minute)},
		{skipPaneHost, skipPaneDst, at(12 * time.Minute)},
		{skipPaneHost, skipPaneDst, at(2*time.Hour + 10*time.Minute)},
		{graceHost, 901, at(time.Minute)},
		{graceHost, 902, at(5 * time.Minute)},
		{graceHost, 901, at(20 * time.Minute)},
	} {
		out = append(out, mkRecord(e.src, e.dst, e.start, 10, StateEstablished))
	}
	SortByStart(out)
	return out
}

// checkTableEdgeCases asserts what the two edge-case hosts must come out
// as, however the stream was cut or reordered on the way.
func checkTableEdgeCases(t *testing.T, feats map[IP]*HostFeatures) {
	t.Helper()
	if f := feats[skipPaneHost]; f == nil || f.Peers != 1 || f.NewPeers != 0 ||
		!reflect.DeepEqual(sortedGaps(f), []float64{120, 7080}) {
		t.Errorf("skip-pane host: got %+v, want 1 peer, 0 new, gaps [120 7080]", f)
	}
	if f := feats[graceHost]; f == nil || f.Peers != 2 || f.NewPeers != 0 ||
		!reflect.DeepEqual(sortedGaps(f), []float64{1140}) {
		t.Errorf("grace host: got %+v, want 2 peers, 0 new, gaps [1140]", f)
	}
}

// Property: for ANY record stream and ANY reordering that displaces each
// record's arrival by less than maxSkew, the streaming store with
// that MaxSkew reproduces the batch extractor exactly. Each record's
// arrival key is its start plus a uniform [0, maxSkew) offset, so the
// released watermark (frontier − maxSkew) always trails every unseen
// record's start and nothing is ever rejected.
func TestStreamShufflePropertyMatchesBatch(t *testing.T) {
	prop := func(seed int64, sizeRaw uint16, skewRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(sizeRaw)%400
		maxSkew := time.Duration(1+int(skewRaw)%600) * time.Second

		records := withTableEdgeCases(strictlyOrderedRecords(rng, n))
		shuffled := make([]keyedRecord, len(records))
		for i, r := range records {
			shuffled[i] = keyedRecord{rec: r, key: r.Start.Add(time.Duration(rng.Int63n(int64(maxSkew))))}
		}
		sortKeyed(shuffled)

		se := NewShardedExtractorSkew(FeatureOptions{}, 1, maxSkew)
		for i := range shuffled {
			if err := se.Add(&shuffled[i].rec); err != nil {
				t.Logf("seed %d: record rejected: %v", seed, err)
				return false
			}
		}
		se.Drain()
		if se.Pending() != 0 {
			t.Logf("seed %d: %d records still pending after drain", seed, se.Pending())
			return false
		}

		sealed := sealAll(se)
		checkTableEdgeCases(t, sealed.Features())
		if diff := batchDiff(sealed, records, FeatureOptions{}); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
