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
// restored, so that only the restored slot holds it.
var paneSizingPlan = map[IP][]paneShape{
	1: {{4, 10}, {40, 200}, {150, 700}, {300, 900}},
	2: {{300, 900}, {60, 200}, {12, 40}, {2, 3}},
	3: {{20, 300}, {30, 30}, {25, 200}, {1, 1}},
	5: {{50, 200}, {}, {50, 200}, {80, 300}},
	6: {{100, 400}, {100, 400}, {100, 400}, {100, 400}},
	7: {{}, {}, {}, {30, 90}},
	9: {{}, {}, {1, 1}, {3, 6}},
}

// Carrying one accumulator from pane to pane changes capacity only:
// every pane a store seals, its arrays warm or cold, is the batch
// extraction over the pane's records (nil Interstitials where the batch
// has nil), and a store restored mid-stream, which starts cold, keeps
// the same state and seals the same panes.
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
		if len(stores) == 2 && !reflect.DeepEqual(stores[0].State(), stores[1].State()) {
			t.Fatalf("pane %d: the restored store's state differs", k)
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

// detachedPlan's hosts grow (1), shrink (2, 3), lose every gap (4),
// skip a pane and return (5), and appear for the first time (6, 7).
// Pane 1 is busier than panes 2 and 3, and pane 4 the busiest.
var detachedPlan = map[IP][]paneShape{
	1: {{10, 40}, {40, 200}, {300, 900}, {600, 1500}},
	2: {{300, 900}, {12, 40}, {2, 3}, {150, 400}},
	3: {{100, 400}, {60, 300}, {40, 200}, {35, 100}},
	4: {{20, 300}, {30, 30}, {25, 200}, {1, 1}},
	5: {{50, 200}, {}, {50, 200}, {80, 300}},
	6: {{}, {}, {}, {30, 90}},
	7: {{}, {20, 60}, {}, {}},
}

// busiest is the most a store shard's accumulator has held at a seal:
// table entries and gap chunks.
type busiest struct{ dests, chunks int }

// noteBusiest raises each shard's busiest pane to the one it is about
// to seal.
func noteBusiest(se *ShardedExtractor, most []busiest) {
	for i := range se.shards {
		a := &se.shards[i].ex.acc
		most[i] = busiest{max(most[i].dests, a.dests.n), max(most[i].chunks, int(a.gaps.used))}
	}
}

// checkBusiest fails unless every shard of a store that has just sealed
// holds what its busiest pane needed and no more: the table at the size
// its growth steps give for that pane's entries, and the pages that
// pane's chunks filled. Quiet panes after a busy one shrink nothing,
// and grow nothing either.
func checkBusiest(t *testing.T, se *ShardedExtractor, most []busiest) {
	t.Helper()
	for i := range se.shards {
		a := &se.shards[i].ex.acc
		if size, _ := tableSize(most[i].dests, true); most[i].dests > 0 && len(a.dests.slots) != size {
			t.Fatalf("shard %d: table of %d slots, its busiest pane of %d entries needs %d", i, len(a.dests.slots), most[i].dests, size)
		}
		if pages := (most[i].chunks + pageChunks - 1) / pageChunks; len(a.gaps.pages) != pages {
			t.Fatalf("shard %d: %d gap pages, its busiest pane of %d chunks needs %d", i, len(a.gaps.pages), most[i].chunks, pages)
		}
		if a.dests.n != 0 || a.gaps.used != 0 || len(a.hosts) != 0 {
			t.Fatalf("shard %d: the seal left entries, chunks or slots in use", i)
		}
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

// A sealed pane shares nothing with the store: the accumulator the
// store folds the next panes into, through the same table and pages,
// changes nothing it shows, whatever its hosts do next. Every pane, and
// the sliding merge of panes 2–4, is the batch extraction over its
// records, also through a store restored within pane 2; and after every
// seal each shard holds what its busiest pane needed (checkBusiest).
func TestSealedPaneIsDetached(t *testing.T) {
	const maxSkew = 5 * time.Minute
	feed := paneFeed(53, detachedPlan, maxSkew)
	stores := []*ShardedExtractor{NewShardedExtractorSkew(FeatureOptions{}, 2, maxSkew)}
	panes := make([][]*Pane, 2)  // per store
	most := make([][]busiest, 2) // per store, per shard
	var records [][]Record       // per pane, arrival order
	var pane, next []Record
	var first frozenPane // pane 1 as store 0 sealed it
	seal := func(k int) {
		t.Helper()
		to := baseTime().Add(time.Duration(k+1) * time.Hour)
		records = append(records, pane)
		for i, se := range stores {
			se.ReleaseBefore(to)
			if most[i] == nil {
				most[i] = make([]busiest, se.Shards())
			}
			noteBusiest(se, most[i])
			p := se.TakePane(Window{From: to.Add(-time.Hour), To: to})
			checkBusiest(t, se, most[i])
			panes[i] = append(panes[i], p)
			if diff := batchDiff(p.FeatureSet(), pane, FeatureOptions{}); diff != "" {
				t.Fatalf("pane %d, store %d: %s", k+1, i, diff)
			}
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

// A warm store shard folds a pane no larger than its largest without
// allocating — the table, the pages, the slots and the pending slab are
// all sized already — and seals it in a constant number of allocations,
// whatever the number of hosts: the pane's features, destinations,
// spans and gap array.
func TestDestTablePaneSizingAllocs(t *testing.T) {
	const (
		perSeal = 4
		maxSkew = time.Minute
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
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
		// pane feeds the k-th copy of the pane, an hour after the last, in
		// start order, with every third pane only its first half: never
		// larger than the first.
		pane := func(k int) {
			shift := time.Duration(k) * time.Hour
			n := len(feed)
			if k%3 == 2 {
				n /= 2
			}
			for j := range feed[:n] {
				recs[j] = feed[j].rec
				recs[j].Start = recs[j].Start.Add(shift)
				if err := se.Add(&recs[j]); err != nil {
					t.Fatal(err)
				}
			}
			se.ReleaseBefore(baseTime().Add(shift + time.Hour))
		}
		pane(0) // the first pane grows everything from empty
		taken = se.take(true)
		for k := 1; k <= 4; k++ {
			// A collection under way allocates for itself; start each
			// phase after a whole one.
			runtime.GC()
			m0 := mallocs()
			pane(k)
			m1 := mallocs()
			runtime.GC()
			m2 := mallocs()
			taken = se.take(true)
			m3 := mallocs()
			if m1 != m0 {
				t.Errorf("%d hosts, pane %d: folding made %d allocations, want 0", hosts, k, m1-m0)
			}
			if m3-m2 > perSeal {
				t.Errorf("%d hosts, pane %d: the seal made %d allocations, want at most %d", hosts, k, m3-m2, perSeal)
			}
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

// A known host costs the store 20 bytes whether it is active or idle —
// its queue — and a host with records in the open pane 120 more, its
// accumulator slot: 140 in all, against the 192 (a 32-byte queue, a
// builder in the 64-byte size class and its 96-byte features) a host
// cost when each kept its own builder. Its destinations and gaps are
// in the shard's table and pages.
func TestReorderHostQueueSize(t *testing.T) {
	if size := unsafe.Sizeof(hostQueue{}); size > 20 {
		t.Errorf("host queue is %d bytes, want at most 20", size)
	}
	if size := unsafe.Sizeof(hostSlot{}); size > 120 {
		t.Errorf("host slot is %d bytes, want at most 120", size)
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

// BenchmarkStreamFoldWarm is one hourly pane folded into a warm store
// shard, without its seal: BenchmarkStreamExtractorSkew's day-shaped
// feed (400 hosts, MaxSkew 5 m) over one hour, filed on the pending
// lists and folded into the accumulator by the sweeps and the closing
// ReleaseBefore. A first pane, sealed before the timer starts, sizes
// the table, the gap pages, the slots and the slab, and every op folds
// the same pane an hour later, so CI gates its allocs/op at zero
// (benchgate -zero-allocs). The seal runs with the timer stopped.
func BenchmarkStreamFoldWarm(b *testing.B) {
	const maxSkew = 5 * time.Minute
	feed := dayFeed(400, time.Hour, maxSkew, dayHostShape)
	recs := make([]Record, len(feed))
	se := newShardExtractor(FeatureOptions{}, maxSkew)
	pane := func(k int) {
		shift := time.Duration(k) * time.Hour
		for j := range feed {
			recs[j] = feed[j].rec
			recs[j].Start = recs[j].Start.Add(shift)
			if err := se.Add(&recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		se.ReleaseBefore(baseTime().Add(shift + time.Hour))
	}
	pane(0)
	se.take(true)
	runtime.GC() // a collection under way allocates for itself
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pane(i + 1)
		b.StopTimer()
		se.take(true)
		runtime.GC()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(feed)), "ns/record")
}
