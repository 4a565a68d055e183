package flow

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// reorderRecord builds record number id from hosts initiators: Src
// cycles through the hosts, and each host through three destinations, so
// that one host's records repeat destinations (interstitial gaps) and
// the rest of the fields vary with id.
func reorderRecord(id, hosts int, start time.Time) Record {
	return Record{
		Src: IP(1 + id%hosts), Dst: IP(1000 + id/hosts%3),
		SrcPort: uint16(1024 + id), DstPort: uint16(80 + id%5), Proto: TCP,
		Start: start, End: start.Add(time.Duration(id) * time.Millisecond),
		SrcPkts: uint32(id), DstPkts: uint32(2 * id),
		SrcBytes: uint64(3 * id), DstBytes: uint64(5 * id),
		State:   StateEstablished + ConnState(id%3/2),
		Payload: []byte{byte(id), byte(id >> 8), 0xfe},
	}
}

// checkLists verifies a shard's pending lists: every host's list is
// linked both ways and in start order, the lists and the free list
// account for every slab slot, and the entry count is right. The active
// list names valid queues, each once and flagged as listed, and every
// queue with entries is on it; right after a sweep (swept), none on it
// is empty.
func checkLists(t testing.TB, p *pendingLists, swept bool) {
	t.Helper()
	onList := make(map[int32]bool, len(p.active))
	for _, i := range p.active {
		if i < 0 || int(i) >= len(p.queues) {
			t.Fatalf("active list names queue %d of %d", i, len(p.queues))
		}
		if onList[i] {
			t.Fatalf("host %v is on the active list twice", p.queues[i].host)
		}
		onList[i] = true
		if swept && p.queues[i].head == noEntry {
			t.Fatalf("host %v is on the active list with nothing pending after a sweep", p.queues[i].host)
		}
	}
	filed := 0
	for i, q := range p.queues {
		if q.listed != onList[int32(i)] {
			t.Fatalf("host %v: listed = %v, on the active list = %v", q.host, q.listed, onList[int32(i)])
		}
		if q.head != noEntry && !q.listed {
			t.Fatalf("host %v has entries and is not on the active list", q.host)
		}
		prev := noEntry
		for slot := q.head; slot != noEntry; slot = p.slab[slot].next {
			e := &p.slab[slot]
			if e.prev != prev {
				t.Fatalf("host %v: entry %d links back to %d, not %d", q.host, slot, e.prev, prev)
			}
			if prev != noEntry && p.slab[prev].start > e.start {
				t.Fatalf("host %v: entry %d starts before the entry ahead of it", q.host, slot)
			}
			prev = slot
			filed++
		}
		if q.tail != prev {
			t.Fatalf("host %v: tail %d, list ends at %d", q.host, q.tail, prev)
		}
	}
	vacant := 0
	for slot := p.free; slot != noEntry; slot = p.slab[slot].next {
		vacant++
	}
	if filed != p.n || filed+vacant != len(p.slab) {
		t.Fatalf("%d entries listed, %d counted, %d vacant, slab of %d", filed, p.n, vacant, len(p.slab))
	}
}

// Fed records in any interleaving with seals (ReleaseBefore at or past
// the watermark, then take) and State → RestoreState hops into a fresh
// extractor, with starts on a coarse grid so ties are the common case,
// every sealed pane and the drained remainder hold exactly the features
// a batch extraction gives over the pane's accepted records in arrival
// order: each host's records fold in the order a stable sort by start
// gives. A record is rejected only below the last seal or MaxSkew or
// more behind the frontier.
func TestReorderMatchesStableSort(t *testing.T) {
	const (
		maxSkew = 8 * time.Second
		hosts   = 5
	)
	rejects, restoredPending, panes := 0, 0, 0 // proof the run reached every path
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		se := newShardExtractor(FeatureOptions{}, maxSkew)
		var pane []Record    // accepted since the last seal, arrival order
		var sealed time.Time // the latest seal
		seal := func(at time.Time) {
			se.ReleaseBefore(at)
			var in, rest []Record
			for _, r := range pane {
				if r.Start.Before(at) {
					in = append(in, r)
				} else {
					rest = append(rest, r)
				}
			}
			got := paneOf(se.take(true)).Features()
			if want := ExtractFeatures(in, FeatureOptions{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: pane sealed at %v differs from the batch over its %d records", seed, at, len(in))
			}
			pane, sealed = rest, maxTime(sealed, at)
			panes++
			checkLists(t, &se.pending, true)
		}
		clock := baseTime()
		for id := 1; id <= 400; id++ {
			switch op := rng.Intn(20); {
			case op == 0:
				// Never behind the watermark, as the engine seals.
				seal(maxTime(clock.Add(time.Duration(rng.Intn(12)-8)*time.Second), se.frontier.Add(-maxSkew+1)))
			case op == 1:
				st := se.State()
				restoredPending += len(st.Pending)
				se = newShardExtractor(FeatureOptions{}, maxSkew)
				if err := se.RestoreState(st); err != nil {
					t.Fatal(err)
				}
			}
			// The clock creeps forward; a record lands up to 1.5 × MaxSkew
			// behind it, so some arrive too late and must be rejected.
			clock = clock.Add(time.Duration(rng.Intn(3)) * time.Second)
			r := reorderRecord(id, hosts, clock.Add(-time.Duration(rng.Intn(13))*time.Second))
			watermark := se.frontier.Add(-maxSkew + 1)
			err := se.Add(&r)
			switch {
			case err == nil && r.Start.Before(sealed):
				t.Fatalf("seed %d: record %d at %v accepted below the seal at %v", seed, id, r.Start, sealed)
			case err != nil && !r.Start.Before(sealed) && !r.Start.Before(watermark):
				t.Fatalf("seed %d: record %d at %v rejected at or past the seal %v and the watermark %v", seed, id, r.Start, sealed, watermark)
			case err == nil:
				pane = append(pane, r)
			default:
				rejects++
			}
			checkLists(t, &se.pending, false)
		}
		se.Drain()
		checkLists(t, &se.pending, true)
		if want := ExtractFeatures(pane, FeatureOptions{}); !reflect.DeepEqual(paneOf(se.take(true)).Features(), want) {
			t.Fatalf("seed %d: drained features differ from the batch over the last pane's %d records", seed, len(pane))
		}
	}
	if rejects == 0 || restoredPending == 0 || panes == 0 {
		t.Errorf("weak run: %d rejects, %d entries carried through a restore, %d panes", rejects, restoredPending, panes)
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// warmPendingLists returns pending lists a feed has already run through
// — the slab grown to the feed's depth, about n entries over 64 hosts —
// and step, which files the feed's next record and folds what it makes
// ready on its host. Starts climb one second per record with up to ±n/2
// seconds of jitter, so records arrive well out of order within a host.
func warmPendingLists(n int) (p *pendingLists, step func() (folded int)) {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = reorderRecord(i+1, 64, baseTime().Add(time.Duration(i+i*37%n)*time.Second))
	}
	maxSkew := int64(n) * int64(time.Second)
	lists := newPendingLists()
	p = &lists
	i, frontier := 0, int64(-1<<63)
	step = func() (folded int) {
		r := &recs[i%n]
		c := compactOf(r)
		c.start += int64(i/n*n) * int64(time.Second)
		i++
		frontier = max(frontier, c.start)
		qi := p.queue(r.Src)
		p.file(qi, c)
		q := &p.queues[qi]
		for p.ready(q, frontier-maxSkew+1) {
			p.pop(q)
			folded++
		}
		return folded
	}
	for range 3 * n {
		step()
	}
	return p, step
}

// Filing and folding must not allocate once the slab has grown to the
// feed's depth: no boxing, no per-record node, nothing per host.
func TestReorderPushPopZeroAlloc(t *testing.T) {
	p, step := warmPendingLists(256)
	folded := 0
	if avg := testing.AllocsPerRun(2000, func() { folded += step() }); avg != 0 {
		t.Errorf("file+fold on warm lists: %v allocs, want 0", avg)
	}
	if folded < 1900 || p.n < 64 {
		t.Errorf("weak run: %d entries folded, %d left pending", folded, p.n)
	}
}

// The slab must stay free of pointers, and its entries no bigger than
// 32 bytes: a field that brings a pointer back makes the garbage
// collector scan every pending entry again, and the slab is most of a
// live store's pending state.
func TestReorderSlabHoldsNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return ty.Len() > 0 && hasPointers(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			return true
		}
		return false
	}
	elem := reflect.TypeOf(pendingLists{}.slab).Elem()
	if hasPointers(elem) {
		t.Errorf("pending slab element %v holds a pointer", elem)
	}
	if size := unsafe.Sizeof(pendingEntry{}); size > 32 {
		t.Errorf("pending entry is %d bytes, want at most 32", size)
	}
}

// BenchmarkStreamReorder is one record through warm per-host pending
// lists 4096 entries deep — filed on its host's list, then that host's
// ready entries popped: the per-record cost MaxSkew adds to the
// streaming extractor, folding aside. CI gates its allocs/op at zero
// (benchgate -zero-allocs).
func BenchmarkStreamReorder(b *testing.B) {
	_, step := warmPendingLists(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// ---- the oracle: the binary heap over one global order ------------------

// reorderKey is one buffered record's place in the oracle's order: its
// start (Unix ns), then its arrival number.
type reorderKey struct {
	start int64
	seq   uint64
	slot  int32 // index into the heap's slab
}

func (k reorderKey) less(o reorderKey) bool {
	return k.start < o.start || k.start == o.start && k.seq < o.seq
}

// reorderHeap is the reorder buffer the store once kept: a binary
// min-heap of keys by (start, arrival) over a record slab, holding every
// accepted record in one global order.
type reorderHeap struct {
	keys []reorderKey
	slab []Record
	free []int32
}

func (b *reorderHeap) len() int        { return len(b.keys) }
func (b *reorderHeap) minStart() int64 { return b.keys[0].start }

func (b *reorderHeap) push(r *Record, seq uint64) {
	var slot int32
	if n := len(b.free); n > 0 {
		slot = b.free[n-1]
		b.free = b.free[:n-1]
		b.slab[slot] = *r
	} else {
		slot = int32(len(b.slab))
		b.slab = append(b.slab, *r)
	}
	b.keys = append(b.keys, reorderKey{start: r.Start.UnixNano(), seq: seq, slot: slot})
	b.up(len(b.keys) - 1)
}

func (b *reorderHeap) pop() Record {
	top := b.keys[0]
	n := len(b.keys) - 1
	b.keys[0] = b.keys[n]
	b.keys = b.keys[:n]
	if n > 1 {
		b.down(0)
	}
	r := b.slab[top.slot]
	b.slab[top.slot] = Record{}
	b.free = append(b.free, top.slot)
	return r
}

func (b *reorderHeap) up(i int) {
	k := b.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(b.keys[parent]) {
			break
		}
		b.keys[i] = b.keys[parent]
		i = parent
	}
	b.keys[i] = k
}

func (b *reorderHeap) down(i int) {
	k := b.keys[i]
	n := len(b.keys)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && b.keys[r].less(b.keys[child]) {
			child = r
		}
		if !b.keys[child].less(k) {
			break
		}
		b.keys[i] = b.keys[child]
		i = child
	}
	b.keys[i] = k
}

// heapStream is a store shard with the heap for its reorder stage, as
// the store once was: every accepted record is pushed, everything up to
// frontier − MaxSkew is released on every Add in (start, arrival) order,
// each released record of a monitored host joins the open pane, and
// released is the start of the last one. A pane's features are the
// batch extraction over its records in release order.
type heapStream struct {
	maxSkew            time.Duration
	hosts              func(IP) bool
	heap               reorderHeap
	frontier, released time.Time
	seq                uint64
	pane               []Record
}

func (h *heapStream) add(r *Record) (accepted bool) {
	if r.Start.Before(h.released) {
		return false
	}
	if r.Start.After(h.frontier) {
		h.frontier = r.Start
	}
	if h.maxSkew == 0 {
		h.released = r.Start
		h.observe(r)
		return true
	}
	h.seq++
	h.heap.push(r, h.seq)
	h.release(h.frontier.UnixNano() - int64(h.maxSkew) + 1)
	return true
}

func (h *heapStream) release(bound int64) {
	for h.heap.len() > 0 && h.heap.minStart() < bound {
		r := h.heap.pop()
		h.released = r.Start
		h.observe(&r)
	}
}

func (h *heapStream) observe(r *Record) {
	if h.hosts(r.Src) {
		h.pane = append(h.pane, *r)
	}
}

func (h *heapStream) releaseBefore(t time.Time) {
	h.release(t.UnixNano())
	if t.After(h.released) {
		h.released = t
	}
}

// sealed is the open pane's features.
func (h *heapStream) sealed() *FeatureSet {
	return ExtractFeatureSet(h.pane, FeatureOptions{}, Window{})
}

func (h *heapStream) take() *FeatureSet {
	fs := h.sealed()
	h.pane = nil
	return fs
}

// ---- the store against the heap -------------------------------------------

// reorderSkews are the MaxSkews a script picks from: the zero-skew
// bypass, one nanosecond, widths that divide nothing evenly, and the
// live default.
var reorderSkews = []time.Duration{0, 1, 700, 8 * time.Second, 5 * time.Minute, time.Hour}

// Script operations (see runReorderScript). Each is followed by one
// argument byte. Records trail the clock, as a monitor's exports trail
// the flows' starts.
const (
	opPushNear  = iota // a record within ±128 ns of the clock: ties
	opPushFine         // … up to MaxSkew/16 behind it
	opPushWide         // … up to 1.3 MaxSkew behind it: late ones too
	opTick             // move the clock on by up to MaxSkew/64
	opIdle             // … by up to 16 MaxSkew
	opSeal             // ReleaseBefore a point within ±MaxSkew/2 of the clock (never behind the watermark), then take
	opRestore          // State → RestoreState into a fresh extractor under reorderSkews[arg]
	opJumpYears        // step the clock arg years, either way
	opCount
)

// reorderCoverage counts how often scripts reached the paths that are
// easy to miss.
type reorderCoverage struct {
	rejects, storeOnly, restored, sealed, walked, deepest int
	// sparse counts steps at which a shard of 1,000 or more hosts had
	// under a tenth of them on its active list.
	sparse int
}

// unmonitored is the host the scripts' Hosts predicate excludes: its
// records count, and are dropped.
const unmonitored = IP(4)

// A script whose first byte is wideScript or more feeds records from
// wideHosts hosts.
const (
	wideScript = 240
	wideHosts  = 1024
)

// runReorderScript feeds one script to a store shard and to heapStream.
// script[0] picks MaxSkew (modulo len(reorderSkews)) and how many hosts
// the records come from (1–5, the quotient; wideHosts from wideScript
// up); the rest is (operation, argument) byte pairs. At every step it
// checks that the store accepts every record the heap does — a record
// only the store would take is MaxSkew behind the frontier, so the
// engine never hands it over, and it is fed to neither — and that the
// pending lists are sound. Every seal, and the final Drain, must leave
// the same features, Interstitials in the same order, and the same
// contact sets as the heap's.
func runReorderScript(t testing.TB, script []byte, cov *reorderCoverage) {
	if len(script) == 0 {
		return
	}
	maxSkew := reorderSkews[int(script[0])%len(reorderSkews)]
	hosts := 1 + int(script[0])/len(reorderSkews)%5
	if script[0] >= wideScript {
		hosts = wideHosts
	}
	unit := func(div int64) time.Duration { return time.Duration(max(1, int64(maxSkew)/div)) }

	opts := FeatureOptions{Hosts: func(ip IP) bool { return ip != unmonitored }}
	fresh := func() *shardExtractor { return newShardExtractor(opts, maxSkew) }
	se := fresh()
	ref := &heapStream{maxSkew: maxSkew, hosts: opts.Hosts}

	clock := baseTime()
	id := 0
	// mark is the furthest the engine's lateness cut (frontier − MaxSkew)
	// has been: the engine drops a record behind it, and seals a pane only
	// past it. It is the cut itself unless a restore changed MaxSkew.
	var mark time.Time
	raiseMark := func() { mark = maxTime(mark, se.frontier.Add(-maxSkew)) }
	samePane := func(step int, what string, got, want *FeatureSet) {
		t.Helper()
		if len(got.Features()) != len(want.Features()) {
			t.Fatalf("step %d (%s): %d hosts, the heap has %d", step, what, len(got.Features()), len(want.Features()))
		}
		for ip, f := range got.Features() {
			if w, ok := want.Features()[ip]; !ok || !reflect.DeepEqual(f, w) {
				t.Fatalf("step %d (%s): host %v's features differ from the heap's", step, what, ip)
			}
		}
		if !reflect.DeepEqual(got.Contacts(), want.Contacts()) {
			t.Fatalf("step %d (%s): contact sets differ from the heap's", step, what)
		}
	}
	push := func(step int, start time.Time) {
		id++
		r := reorderRecord(id, hosts, start)
		heapTakes := !start.Before(ref.released)
		storeTakes := !start.Before(se.released)
		if heapTakes && !storeTakes {
			t.Fatalf("step %d: record at %v: the heap takes it, the store's released mark %v refuses it", step, start, se.released)
		}
		if storeTakes && !heapTakes {
			if !start.Before(mark) {
				t.Fatalf("step %d: record at %v is refused by the heap only, but not behind the engine's mark %v", step, start, mark)
			}
			cov.storeOnly++
			return
		}
		if q, ok := se.pending.index[r.Src]; ok && storeTakes && maxSkew > 0 {
			if tail := se.pending.queues[q].tail; tail != noEntry && se.pending.slab[tail].start > start.UnixNano() {
				cov.walked++
			}
		}
		if err := se.Add(&r); (err == nil) != heapTakes {
			t.Fatalf("step %d: record at %v: err = %v, heap accepted = %v", step, start, err, heapTakes)
		}
		if ref.add(&r) != heapTakes {
			t.Fatalf("step %d: the heap misjudged its own released mark", step)
		}
		if !heapTakes {
			cov.rejects++
		}
		cov.deepest = max(cov.deepest, se.pending.n)
		if n := len(se.pending.queues); n >= 1000 && 10*len(se.pending.active) < n {
			cov.sparse++
		}
		raiseMark()
		checkLists(t, &se.pending, false)
	}

	ops := script[1:]
	for step := 0; 2*step+1 < len(ops); step++ {
		op, arg := ops[2*step]%opCount, ops[2*step+1]
		signed := time.Duration(int8(arg))
		switch op {
		case opPushNear:
			push(step, clock.Add(signed))
		case opPushFine:
			push(step, clock.Add(-time.Duration(arg)*unit(16*256)))
		case opPushWide:
			push(step, clock.Add(-time.Duration(arg)*unit(200)))
		case opTick:
			clock = clock.Add(time.Duration(arg) * unit(64*256))
		case opIdle:
			clock = clock.Add(time.Duration(arg) * unit(16))
		case opSeal:
			at := maxTime(clock.Add(signed*unit(256)), mark.Add(1))
			se.ReleaseBefore(at)
			ref.releaseBefore(at)
			got, want := paneOf(se.take(true)), ref.take()
			samePane(step, "seal", got, want)
			cov.sealed += got.Hosts()
			checkLists(t, &se.pending, true)
		case opRestore:
			st := se.State()
			if len(st.Pending) != se.pending.n {
				t.Fatalf("step %d: snapshot lists %d pending, the lists hold %d", step, len(st.Pending), se.pending.n)
			}
			for i := 1; i < len(st.Pending); i++ {
				a, b := st.Pending[i-1], st.Pending[i]
				if a.Start.After(b.Start) || a.Start.Equal(b.Start) && a.Src > b.Src {
					t.Fatalf("step %d: Pending[%d:%d] out of (start, host) order", step, i-1, i+1)
				}
			}
			// The restoring extractor may run another MaxSkew (the old
			// one allowed it, and the heap just buffers longer or shorter
			// from then on); zero would strand what is pending.
			if next := reorderSkews[int(arg)%len(reorderSkews)]; next > 0 && maxSkew > 0 {
				maxSkew, ref.maxSkew = next, next
			}
			se = fresh()
			if err := se.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			cov.restored += len(st.Pending)
			raiseMark()
			// A restore lists only the queues it files on.
			checkLists(t, &se.pending, true)
		case opJumpYears:
			to := clock.AddDate(int(int8(arg)), 0, 0)
			if y := to.Year(); y > 1700 && y < 2200 { // UnixNano's range
				clock = to
			}
		}
	}
	se.Drain()
	ref.release(ref.frontier.UnixNano() + 1)
	samePane(len(ops)/2, "Drain", paneOf(se.take(true)), ref.sealed())
	if se.pending.n != 0 {
		t.Fatalf("%d entries left after Drain", se.pending.n)
	}
	checkLists(t, &se.pending, true)
}

// wideIdleScript is a shard of wideHosts hosts at MaxSkew 5 m, most of
// them idle: one record from each host, an idle stretch that sweeps
// them all out, then a few records at a time with a sweep between each
// group, a seal and a restore, so that several sweeps pass over a
// thousand queues of which only a handful hold anything.
func wideIdleScript() []byte {
	script := []byte{wideScript + 4} // reorderSkews[4]: 5 minutes
	for range wideHosts + 40 {
		script = append(script, opPushFine, 9, opTick, 3)
	}
	script = append(script, opIdle, 40)
	for round := range 12 {
		script = append(script,
			opPushNear, 0, opPushFine, byte(60*round), opPushWide, byte(20*round), opIdle, 4)
		switch round {
		case 5:
			script = append(script, opSeal, 0x80)
		case 8:
			script = append(script, opRestore, 4)
		}
	}
	return script
}

// reorderScripts are the cases the store could plausibly get wrong,
// spelled out; they also seed FuzzReorder.
var reorderScripts = map[string][]byte{
	"equal starts": {4,
		opPushNear, 0, opPushNear, 0, opPushNear, 0, opTick, 200, opPushNear, 0, opPushNear, 0,
		opTick, 255, opTick, 255, opPushNear, 0, opPushNear, 0, opIdle, 40, opPushNear, 0},
	// One host, three destinations in turn: records 1 and 4, 2 and 5, 3
	// and 6 share a destination and a start, and the gaps that follow
	// depend on which of each pair folds first.
	"equal starts to one destination": {3,
		opPushNear, 0, opPushNear, 0, opPushNear, 0, opPushNear, 0, opPushNear, 0, opPushNear, 0,
		opTick, 7, opPushNear, 5, opPushNear, 3, opPushNear, 5, opPushNear, 3, opPushNear, 5,
		opPushNear, 3, opIdle, 2, opPushNear, 0, opSeal, 0, opPushNear, 1, opIdle, 1, opPushNear, 0},
	// One host's MaxSkew worth of records, each starting earlier than
	// the last: every one is filed at the head, past all the others.
	"one host's MaxSkew in reverse": {3,
		opPushWide, 0, opPushWide, 15, opPushWide, 30, opPushWide, 45, opPushWide, 60, opPushWide, 75,
		opPushWide, 90, opPushWide, 105, opPushWide, 120, opPushWide, 135, opPushWide, 150,
		opPushWide, 165, opPushWide, 180, opPushWide, 195, opPushWide, 199, opTick, 255, opPushNear, 0,
		opIdle, 1, opPushNear, 0, opIdle, 1, opPushNear, 0},
	// Seals every MaxSkew/8 of clock, each MaxSkew/8 behind it, so that
	// several panes' worth of records are pending at once — the engine's
	// MaxSkew larger than Slide.
	"MaxSkew larger than Slide": {4 + 6*2,
		opPushWide, 20, opPushWide, 120, opPushFine, 40, opIdle, 2, opSeal, 0xe0,
		opPushWide, 100, opPushWide, 10, opPushWide, 60, opIdle, 2, opSeal, 0xe0,
		opPushWide, 150, opPushFine, 10, opPushWide, 5, opIdle, 2, opSeal, 0xe0,
		opPushWide, 190, opPushWide, 0, opIdle, 2, opSeal, 0xe0, opPushWide, 80,
		opIdle, 2, opPushNear, 0, opSeal, 0xe0, opIdle, 16, opPushNear, 0},
	// A seal gives up the host's slot while later records of the host
	// are still pending; they, and the host's next records, must open a
	// new slot, not land in the sealed pane.
	"records after a seal detached the builder": {3,
		opPushFine, 200, opPushFine, 100, opPushNear, 0, opTick, 255, opPushNear, 0, opSeal, 0xf0,
		opPushWide, 40, opPushNear, 0, opIdle, 1, opPushNear, 0, opSeal, 0x80, opPushFine, 9,
		opIdle, 2, opPushNear, 0, opPushNear, 1},
	"idle gap longer than the ring": {4,
		opPushFine, 3, opPushFine, 250, opPushWide, 20, opIdle, 255, opPushFine, 1, opPushFine, 200,
		opIdle, 17, opPushWide, 240, opPushNear, 9},
	"years ahead and back": {4,
		opPushFine, 5, opPushWide, 10, opJumpYears, 90, opPushFine, 2, opPushFine, 254,
		opJumpYears, 166, opPushFine, 7, opPushNear, 0, opJumpYears, 100, opPushWide, 3, opPushWide, 250},
	"ReleaseBefore mid-bucket": {3,
		opPushFine, 1, opPushFine, 2, opPushFine, 3, opPushNear, 5, opPushNear, 250, opSeal, 0,
		opPushNear, 1, opPushNear, 255, opSeal, 1, opPushFine, 1, opSeal, 200, opPushFine, 0},
	"zero skew": {0,
		opPushNear, 1, opPushNear, 0, opPushNear, 255, opTick, 1, opPushWide, 3, opSeal, 0, opRestore, 0, opPushNear, 4},
	"restore mid-stream": {4 + 6*4,
		opPushWide, 10, opPushWide, 20, opPushFine, 30, opPushFine, 226, opRestore, 4, opPushFine, 31,
		opTick, 255, opPushWide, 25, opRestore, 4, opTick, 255, opTick, 255, opPushNear, 0},
	"restore under a smaller skew": {5 + 6*2,
		opPushWide, 1, opPushWide, 20, opPushWide, 40, opPushWide, 60, opPushFine, 9, opRestore, 3,
		opPushWide, 100, opPushFine, 3, opPushWide, 127, opRestore, 2, opPushNear, 1, opPushWide, 127},
	"one-nanosecond buckets": {1,
		opPushNear, 0, opPushNear, 1, opPushNear, 1, opPushNear, 0, opTick, 1, opPushNear, 2, opPushNear, 120, opPushNear, 119},
	"a thousand hosts, most idle across sweeps": wideIdleScript(),
}

// The store's per-host pending lists against the heap it replaced, step
// for step, on the named scripts and on random ones. (The name is the
// one CI's race and fuzz steps select.)
func TestReorderWheelMatchesHeap(t *testing.T) {
	var cov reorderCoverage
	for name, script := range reorderScripts {
		t.Run(name, func(t *testing.T) { runReorderScript(t, script, &cov) })
	}
	rng := rand.New(rand.NewSource(22))
	// Pushes and ticks dominate, so that the lists run deep between the
	// rarer seals, restores and jumps.
	mix := []byte{opPushNear, opPushFine, opPushFine, opPushFine, opPushWide, opPushWide, opTick, opTick}
	for i := 0; i < 200; i++ {
		script := []byte{byte(rng.Intn(len(reorderSkews)) + len(reorderSkews)*rng.Intn(5))}
		for n := 100 + rng.Intn(1500); n > 0; n-- {
			op := mix[rng.Intn(len(mix))]
			if rng.Intn(25) == 0 {
				op = byte(rng.Intn(opCount))
			}
			arg := byte(rng.Intn(256))
			switch {
			case op == opJumpYears:
				arg &= 0x7f // forward: after a step back everything is late
			case op == opSeal && rng.Intn(4) > 0:
				arg |= 0x80 // behind the clock: ahead of it, likewise
			}
			script = append(script, op, arg)
		}
		runReorderScript(t, script, &cov)
		if t.Failed() {
			t.Fatalf("script %d: %v", i, script)
		}
	}
	if cov.rejects == 0 || cov.storeOnly == 0 || cov.restored == 0 || cov.sealed == 0 || cov.walked == 0 || cov.deepest < 128 || cov.sparse == 0 {
		t.Errorf("weak run: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

// FuzzReorder is TestReorderWheelMatchesHeap over scripts the fuzzer
// writes.
func FuzzReorder(f *testing.F) {
	for _, script := range reorderScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<13 {
			return
		}
		runReorderScript(t, script, new(reorderCoverage))
	})
}
