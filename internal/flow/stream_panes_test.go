package flow

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// paneShape is one host's traffic in one pane: flows records to dests
// destinations, each destination at least once. Zero flows skips the
// pane; flows == dests makes no interstitial gap.
type paneShape struct{ dests, flows int }

// paneFeed builds a seeded feed of len(plan[host]) hourly panes, each
// host's records in pane k shaped by plan[host][k], arriving up to
// maxSkew after they start. It returns the feed in arrival order.
func paneFeed(seed int64, plan map[IP][]paneShape, maxSkew time.Duration) []keyedRecord {
	rng := rand.New(rand.NewSource(seed))
	var feed []keyedRecord
	for _, host := range SortedHosts(plan) {
		for k, sh := range plan[host] {
			from := baseTime().Add(time.Duration(k) * time.Hour)
			for n := 0; n < sh.flows; n++ {
				dst := n
				if n >= sh.dests {
					dst = rng.Intn(sh.dests)
				}
				start := from.Add(time.Duration(rng.Int63n(int64(time.Hour))))
				state := StateEstablished
				if rng.Intn(4) == 0 {
					state = StateFailed
				}
				r := mkRecord(host, IP(0x0A000000+int(host)<<12+dst), start, uint64(40+rng.Intn(4000)), state)
				feed = append(feed, keyedRecord{rec: r, key: start.Add(time.Duration(rng.Int63n(int64(maxSkew))))})
			}
		}
	}
	slices.SortStableFunc(feed, func(a, b keyedRecord) int { return a.key.Compare(b.key) })
	return feed
}

// paneSizingPlan has hosts that grow, shrink, lose every gap (and win
// them back), skip a pane, keep one shape and arrive late, and one
// (host 9) whose one record in pane 2 has folded when the store is
// restored, so that only the restored builder holds it.
var paneSizingPlan = map[IP][]paneShape{
	1: {{4, 10}, {40, 200}, {150, 700}, {300, 900}},
	2: {{300, 900}, {60, 200}, {12, 40}, {2, 3}},
	3: {{20, 300}, {30, 30}, {25, 200}, {1, 1}},
	5: {{50, 200}, {}, {50, 200}, {80, 300}},
	6: {{100, 400}, {100, 400}, {100, 400}, {100, 400}},
	7: {{}, {}, {}, {30, 90}},
	9: {{}, {}, {1, 1}, {3, 6}},
}

// Sizing a host's builder from its last pane changes capacity only:
// every pane a store seals, hints or none, is the batch extraction over
// the pane's records (nil Interstitials where the batch has nil), and a
// store restored mid-stream, which starts without hints, keeps the same
// state, seals the same panes and sizes the next ones alike.
func TestStatePaneSizingMatchesBatch(t *testing.T) {
	const maxSkew = 5 * time.Minute
	feed := paneFeed(45, paneSizingPlan, maxSkew)
	stores := []*ShardedExtractor{NewShardedExtractorSkew(FeatureOptions{}, 2, maxSkew)}
	var pane []Record // the open pane's records, arrival order
	var next []Record // records past its end, arrival order
	seal := func(k int) {
		t.Helper()
		to := baseTime().Add(time.Duration(k+1) * time.Hour)
		var sets []*FeatureSet
		for _, se := range stores {
			se.ReleaseBefore(to)
			sets = append(sets, se.TakePane(Window{From: to.Add(-time.Hour), To: to}).FeatureSet())
		}
		for i, fs := range sets {
			if diff := batchDiff(fs, pane, FeatureOptions{}); diff != "" {
				t.Fatalf("pane %d, store %d: %s", k, i, diff)
			}
		}
		feats := sets[0].Features()
		for host, shapes := range paneSizingPlan {
			f, ok := feats[host]
			switch sh := shapes[k]; {
			case sh.flows == 0 && ok:
				t.Fatalf("pane %d: host %v skips it, but is in it", k, host)
			case sh.flows == sh.dests && ok && f.Interstitials != nil:
				t.Fatalf("pane %d: host %v has no gaps, but a non-nil gap slice", k, host)
			}
		}
		if len(stores) == 2 {
			if !reflect.DeepEqual(stores[0].State(), stores[1].State()) {
				t.Fatalf("pane %d: the restored store's state differs", k)
			}
			// Builders restored from the snapshot size the next pane too.
			for host := range feats {
				if a, b := paneSizes(stores[0], host), paneSizes(stores[1], host); a != b {
					t.Fatalf("pane %d: host %v sized at %v, and at %v after the restore", k, host, a, b)
				}
			}
		}
		pane, next = next, nil
	}
	k := 0
	var quiet time.Time // the start of host 9's one record in pane 2
	for j := range feed {
		kr := &feed[j]
		for kr.key.Compare(baseTime().Add(time.Duration(k+1)*time.Hour+maxSkew)) >= 0 {
			seal(k)
			k++
		}
		// Restore once that record has surely folded, within pane 2.
		if len(stores) == 1 && k == 2 && !quiet.IsZero() && kr.rec.Start.After(quiet.Add(2*maxSkew)) {
			restored := NewShardedExtractorSkew(FeatureOptions{}, 2, maxSkew)
			if err := restored.RestoreState(stores[0].State()); err != nil {
				t.Fatal(err)
			}
			stores = append(stores, restored)
		}
		for i, se := range stores {
			if err := se.Add(&kr.rec); err != nil {
				t.Fatalf("record %d, store %d: %v", j, i, err)
			}
		}
		if kr.rec.Src == 9 && kr.rec.Start.Before(baseTime().Add(3*time.Hour)) {
			quiet = kr.rec.Start
		}
		if kr.rec.Start.Before(baseTime().Add(time.Duration(k+1) * time.Hour)) {
			pane = append(pane, kr.rec)
		} else {
			next = append(next, kr.rec)
		}
	}
	if k != 3 || len(stores) != 2 {
		t.Fatalf("weak run: %d panes sealed before the last, %d stores", k, len(stores))
	}
	seal(3)
}

// queueOf is host's queue in se.
func queueOf(se *ShardedExtractor, host IP) *hostQueue {
	p := &se.shards[ShardOf(host, len(se.shards))].ex.pending
	return &p.queues[p.index[host]]
}

// paneSizes is the destination and gap count host's queue in se holds
// for the host's next pane.
func paneSizes(se *ShardedExtractor, host IP) [2]uint32 {
	q := queueOf(se, host)
	return [2]uint32{q.dests, q.gaps}
}

// detachedPlan's hosts grow (1), shrink past the 2× rule (2) and within
// it (3), lose every gap (4), skip a pane and return (5), and appear
// for the first time (6, 7).
var detachedPlan = map[IP][]paneShape{
	1: {{10, 40}, {40, 200}, {300, 900}, {600, 1500}},
	2: {{300, 900}, {12, 40}, {2, 3}, {150, 400}},
	3: {{100, 400}, {60, 300}, {40, 200}, {35, 100}},
	4: {{20, 300}, {30, 30}, {25, 200}, {1, 1}},
	5: {{50, 200}, {}, {50, 200}, {80, 300}},
	6: {{}, {}, {}, {30, 90}},
	7: {{}, {20, 60}, {}, {}},
}

// checkKeptArrays checks the rules a reset builder keeps its arrays by,
// in a store that has just sealed detachedPlan's pane 2.
func checkKeptArrays(t *testing.T, se *ShardedExtractor) {
	t.Helper()
	if b := queueOf(se, 2).b; b == nil || b.dests.slots != nil {
		t.Fatal("host 2 shrank from 300 destinations to 12, and kept its table")
	}
	if b := queueOf(se, 3).b; b == nil || len(b.dests.slots) != 128 {
		t.Fatal("host 3 shrank from 100 destinations to 60, and did not keep its table")
	}
	if b := queueOf(se, 4).b; b == nil || b.feats.Interstitials != nil {
		t.Fatal("host 4 lost every gap, and kept its gap buffer")
	}
	if queueOf(se, 5).b != nil {
		t.Fatal("host 5 skipped pane 2, and kept its builder")
	}
}

// frozenPane is a deep copy of what a sealed pane shows.
type frozenPane struct {
	feats    map[IP]HostFeatures
	contacts map[IP][]IP
	state    *PaneState
}

func freeze(p *Pane) frozenPane {
	fs := p.FeatureSet()
	fz := frozenPane{feats: map[IP]HostFeatures{}, contacts: map[IP][]IP{}, state: p.State()}
	for ip, f := range fs.Features() {
		c := *f
		c.Interstitials = slices.Clone(f.Interstitials)
		fz.feats[ip] = c
	}
	for ip, c := range fs.Contacts() {
		fz.contacts[ip] = slices.Clone(c)
	}
	return fz
}

// A sealed pane shares nothing with the store: the builders its hosts
// keep, reset, for the next pane change nothing it shows, whether they
// grow, shrink, drop their table or gap buffer, or are given up. Every
// pane, and the sliding merge of panes 2–4, is the batch extraction
// over its records, also through a store restored within pane 2.
func TestSealedPaneIsDetached(t *testing.T) {
	const maxSkew = 5 * time.Minute
	feed := paneFeed(53, detachedPlan, maxSkew)
	stores := []*ShardedExtractor{NewShardedExtractorSkew(FeatureOptions{}, 2, maxSkew)}
	panes := make([][]*Pane, 2) // per store
	var records [][]Record      // per pane, arrival order
	var pane, next []Record
	var first frozenPane // pane 1 as store 0 sealed it
	seal := func(k int) {
		t.Helper()
		to := baseTime().Add(time.Duration(k+1) * time.Hour)
		records = append(records, pane)
		for i, se := range stores {
			se.ReleaseBefore(to)
			p := se.TakePane(Window{From: to.Add(-time.Hour), To: to})
			panes[i] = append(panes[i], p)
			if diff := batchDiff(p.FeatureSet(), pane, FeatureOptions{}); diff != "" {
				t.Fatalf("pane %d, store %d: %s", k+1, i, diff)
			}
		}
		if k == 1 {
			checkKeptArrays(t, stores[0])
		}
		if k == 0 {
			first = freeze(panes[0][0])
		} else if !reflect.DeepEqual(freeze(panes[0][0]), first) {
			t.Fatalf("pane 1 changed when pane %d was sealed", k+1)
		}
		pane, next = next, nil
	}
	k := 0
	for j := range feed {
		kr := &feed[j]
		for kr.key.Compare(baseTime().Add(time.Duration(k+1)*time.Hour+maxSkew)) >= 0 {
			seal(k)
			k++
		}
		if len(stores) == 1 && k == 1 && len(pane) > 200 {
			restored := NewShardedExtractorSkew(FeatureOptions{}, 2, maxSkew)
			if err := restored.RestoreState(stores[0].State()); err != nil {
				t.Fatal(err)
			}
			stores = append(stores, restored)
			panes[1] = []*Pane{nil} // pane 1 was sealed before the restore
		}
		for i, se := range stores {
			if err := se.Add(&kr.rec); err != nil {
				t.Fatalf("record %d, store %d: %v", j, i, err)
			}
		}
		if kr.rec.Start.Before(baseTime().Add(time.Duration(k+1) * time.Hour)) {
			pane = append(pane, kr.rec)
		} else {
			next = append(next, kr.rec)
		}
	}
	if k != 3 || len(stores) != 2 {
		t.Fatalf("weak run: %d panes sealed before the last, %d stores", k, len(stores))
	}
	seal(3)
	var window []Record
	for _, rs := range records[1:] {
		window = append(window, rs...)
	}
	want := ExtractFeatureSet(window, FeatureOptions{}, Window{})
	for i := range stores {
		merged := MergePanes(0, panes[i][1:]...)
		if len(merged.Features()) != len(want.Features()) {
			t.Fatalf("store %d: panes 2–4 merge to %d hosts, batch has %d", i, len(merged.Features()), len(want.Features()))
		}
		for ip, wf := range want.Features() {
			if f := merged.Features()[ip]; f == nil || !featuresEqualModGapOrder(wf, f) {
				t.Fatalf("store %d: host %v merged from panes 2–4 differs:\nbatch %+v\nmerge %+v", i, ip, wf, f)
			}
		}
		if !reflect.DeepEqual(merged.Contacts(), want.Contacts()) {
			t.Fatalf("store %d: contacts merged from panes 2–4 differ from batch", i)
		}
	}
}

// Feeding a pane of the same shape as the last one allocates only the
// sealed pane's arrays: every host keeps its builder, destination table
// and gap buffer from the last pane, so the count does not grow with
// the hosts.
func TestDestTablePaneSizingAllocs(t *testing.T) {
	const (
		perPane = 8
		maxSkew = time.Minute
	)
	for _, hosts := range []int{64, 512} {
		plan := make(map[IP][]paneShape, hosts)
		rng := rand.New(rand.NewSource(46))
		for h := IP(1); h <= IP(hosts); h++ {
			dests := 1 + rng.Intn(200)
			flows := dests
			if h%8 != 0 { // every eighth host makes no gap
				flows += rng.Intn(600)
			}
			plan[h] = []paneShape{{dests, flows}}
		}
		feed := paneFeed(47, plan, maxSkew)
		slices.SortStableFunc(feed, func(a, b keyedRecord) int { return a.rec.Start.Compare(b.rec.Start) })
		recs := make([]Record, len(feed))
		se := newShardExtractor(FeatureOptions{}, maxSkew)
		var taken paneShard
		k := 0
		// One call feeds the same pane an hour later than the last, in
		// start order, and seals it.
		feedPane := func() {
			shift := time.Duration(k) * time.Hour
			for j := range feed {
				recs[j] = feed[j].rec
				recs[j].Start = recs[j].Start.Add(shift)
				if err := se.Add(&recs[j]); err != nil {
					t.Fatal(err)
				}
			}
			k++
			se.ReleaseBefore(baseTime().Add(time.Duration(k) * time.Hour))
			taken = se.take()
		}
		feedPane() // the first pane grows its tables from empty
		// The pane's features, destinations, spans and gap array.
		if allocs := testing.AllocsPerRun(4, feedPane); allocs > perPane {
			t.Errorf("%d hosts: a pane shaped as the last made %v allocations, want at most %d", hosts, allocs, perPane)
		}
		if len(taken.feats) != hosts {
			t.Fatalf("%d hosts: the pane has %d", hosts, len(taken.feats))
		}
		(&Pane{shards: []paneShard{taken}}).each(func(f *HostFeatures, dsts []IP, _ []span) {
			sh := plan[f.Host][0]
			if len(dsts) != sh.dests || len(f.Interstitials) != sh.flows-sh.dests {
				t.Fatalf("host %v: %d destinations and %d gaps, the plan has %d and %d",
					f.Host, len(dsts), len(f.Interstitials), sh.dests, sh.flows-sh.dests)
			}
			if c := cap(f.Interstitials); c != sh.flows-sh.dests {
				t.Errorf("host %v: gap slice of capacity %d for %d gaps", f.Host, c, sh.flows-sh.dests)
			}
		})
	}
}

// The store's per-host state grows by at most 16 bytes for pane sizing
// and the active list: the queue stays at 32 bytes, and the builder in
// its 64-byte size class.
func TestReorderHostQueueSize(t *testing.T) {
	if size := unsafe.Sizeof(hostQueue{}); size > 32 {
		t.Errorf("host queue is %d bytes, want at most 32", size)
	}
	if size := unsafe.Sizeof(featureBuilder{}); size > 64 {
		t.Errorf("feature builder is %d bytes, want at most 64", size)
	}
}

// The monitored test runs once per monitored host — its queue stands
// for the verdict — and once per record of an unmonitored one, and the
// features are those of batch extraction under the same predicate.
func TestStreamMonitoredTestOncePerHost(t *testing.T) {
	monitored := func(ip IP) bool { return ip <= 5 }
	calls := 0
	counting := FeatureOptions{Hosts: func(ip IP) bool { calls++; return monitored(ip) }}
	rng := rand.New(rand.NewSource(48))
	records := randomSkewedRecords(rng, 600, time.Minute)
	unmonitoredRecords := 0
	for i := range records {
		if i%3 == 0 {
			records[i].Src = IP(100 + rng.Intn(3))
			unmonitoredRecords++
		}
	}
	se := NewShardedExtractorSkew(counting, 2, time.Minute)
	for i := range records {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if want := 5 + unmonitoredRecords; calls != want {
		t.Errorf("Hosts called %d times, want %d: 5 monitored hosts and %d unmonitored records", calls, want, unmonitoredRecords)
	}
	if diff := batchDiff(sealAll(se), records, FeatureOptions{Hosts: monitored}); diff != "" {
		t.Error(diff)
	}
}

// BenchmarkStreamExtractorPanes is the store as the live engine uses
// it: a feed sealed into four hourly panes (ReleaseBefore the hour once
// the feed is MaxSkew past it, then TakePane) through one store, so
// that every pane but the first starts from the hosts' last panes.
// "day" is BenchmarkStreamExtractorSkew's day-shaped feed over four
// hours; "wide" is 8,192 hosts with 4–31 flows each, so few hosts have
// anything pending at any sweep. One op is the whole feed; ns/record
// and allocs/record are the numbers to compare.
func BenchmarkStreamExtractorPanes(b *testing.B) {
	const (
		panes   = 4
		maxSkew = 5 * time.Minute
	)
	wideHostShape := func(rng *rand.Rand) (peers, flows int) { return 2 + rng.Intn(14), 4 + rng.Intn(28) }
	for _, bc := range []struct {
		name  string
		hosts int
		shape func(*rand.Rand) (peers, flows int)
	}{{"day", 400, dayHostShape}, {"wide", 8192, wideHostShape}} {
		b.Run(bc.name, func(b *testing.B) {
			feed := dayFeed(bc.hosts, panes*time.Hour, maxSkew, bc.shape)
			// sealAt[k] is the first record past pane k's end + MaxSkew.
			var sealAt [panes]int
			for k := range sealAt {
				end := baseTime().Add(time.Duration(k+1)*time.Hour + maxSkew)
				sealAt[k], _ = slices.BinarySearchFunc(feed, end, func(kr keyedRecord, t time.Time) int { return kr.key.Compare(t) })
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				se := NewShardedExtractorSkew(FeatureOptions{}, 1, maxSkew)
				j := 0
				for k, end := range sealAt {
					for ; j < end; j++ {
						if err := se.Add(&feed[j].rec); err != nil {
							b.Fatal(err)
						}
					}
					to := baseTime().Add(time.Duration(k+1) * time.Hour)
					if k == panes-1 {
						se.Drain()
					} else {
						se.ReleaseBefore(to)
					}
					if p := se.TakePane(Window{From: to.Add(-time.Hour), To: to}); p.Hosts() == 0 {
						b.Fatalf("pane %d is empty", k)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			n := float64(b.N * len(feed))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/record")
		})
	}
}
