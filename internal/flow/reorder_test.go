package flow

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"plotters/internal/metrics"
)

// reorderRecord builds record number id: Src carries the id (so the
// Hosts predicate, which process calls once per record, logs processing
// order) and every other field is derived from it, so a record that came
// back from the buffer with a neighbour's fields is caught.
func reorderRecord(id int, start time.Time) Record {
	return Record{
		Src: IP(id), Dst: IP(1000 + id%7),
		SrcPort: uint16(1024 + id), DstPort: uint16(80 + id%5), Proto: TCP,
		Start: start, End: start.Add(time.Duration(id) * time.Millisecond),
		SrcPkts: uint32(id), DstPkts: uint32(2 * id),
		SrcBytes: uint64(3 * id), DstBytes: uint64(5 * id),
		State:   StateEstablished,
		Payload: []byte{byte(id), byte(id >> 8), 0xfe},
	}
}

// The reorder buffer against an oracle: under any interleaving of Add
// (which releases up to frontier − MaxSkew), ReleaseBefore and a
// State → RestoreState hop into a fresh extractor, with starts on a
// coarse grid so ties are the common case, records are processed in
// exactly the order a stable sort by start gives over arrival order,
// rejects are exactly the records below the released floor, and every
// snapshot lists the buffered records (start, seq)-sorted and intact.
func TestReorderMatchesStableSort(t *testing.T) {
	const maxSkew = 8 * time.Second
	rejects, restoredPending := 0, 0 // proof the run reached both paths
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var processed []IP
		opts := FeatureOptions{Hosts: func(ip IP) bool {
			processed = append(processed, ip)
			return true
		}}
		se := newShardExtractor(opts, maxSkew)

		byID := map[IP]Record{}
		var accepted []Record // arrival order
		floor := time.Time{}  // nothing below this may still be accepted
		raiseFloor := func() {
			if n := len(processed); n > 0 && byID[processed[n-1]].Start.After(floor) {
				floor = byID[processed[n-1]].Start
			}
		}
		clock := baseTime()
		for id := 1; id <= 400; id++ {
			switch op := rng.Intn(20); {
			case op == 0:
				at := clock.Add(time.Duration(rng.Intn(12)-8) * time.Second)
				se.ReleaseBefore(at)
				raiseFloor()
				if at.After(floor) {
					floor = at
				}
			case op == 1:
				st := se.State()
				if !sort.SliceIsSorted(st.Pending, func(i, j int) bool {
					a, b := st.Pending[i], st.Pending[j]
					if !a.Rec.Start.Equal(b.Rec.Start) {
						return a.Rec.Start.Before(b.Rec.Start)
					}
					return a.Seq < b.Seq
				}) {
					t.Fatalf("seed %d: Pending not sorted by (start, seq)", seed)
				}
				if len(st.Pending) != se.pending.len() {
					t.Fatalf("seed %d: snapshot lists %d pending, buffer holds %d", seed, len(st.Pending), se.pending.len())
				}
				for _, p := range st.Pending {
					if !reflect.DeepEqual(p.Rec, byID[p.Rec.Src]) {
						t.Fatalf("seed %d: pending record altered:\n got %+v\nwant %+v", seed, p.Rec, byID[p.Rec.Src])
					}
				}
				restoredPending += len(st.Pending)
				se = newShardExtractor(opts, maxSkew)
				if err := se.RestoreState(st); err != nil {
					t.Fatal(err)
				}
			}
			// The clock creeps forward; a record lands up to 1.5 × MaxSkew
			// behind it, so some arrive too late and must be rejected.
			clock = clock.Add(time.Duration(rng.Intn(3)) * time.Second)
			r := reorderRecord(id, clock.Add(-time.Duration(rng.Intn(13))*time.Second))
			byID[r.Src] = r
			err := se.Add(&r)
			if late := r.Start.Before(floor); late != (err != nil) {
				t.Fatalf("seed %d: record %d at %v, floor %v: err = %v", seed, id, r.Start, floor, err)
			}
			if err == nil {
				accepted = append(accepted, r)
			} else {
				rejects++
			}
			raiseFloor()
		}
		se.Drain()

		sort.SliceStable(accepted, func(i, j int) bool { return accepted[i].Start.Before(accepted[j].Start) })
		if len(processed) != len(accepted) {
			t.Fatalf("seed %d: processed %d records, accepted %d", seed, len(processed), len(accepted))
		}
		for i, r := range accepted {
			if processed[i] != r.Src {
				t.Fatalf("seed %d: position %d processed record %v, stable sort says %v", seed, i, processed[i], r.Src)
			}
		}
	}
	if rejects == 0 || restoredPending == 0 {
		t.Errorf("weak run: %d rejects, %d records carried through a restore", rejects, restoredPending)
	}
}

// warmReorderBuffer returns a buffer a feed has already run through —
// every slab and run grown to the feed's reorder depth, which is n — and
// the feed: call next for each further record and its release bound.
// Starts climb one second per record with up to ±n/2 seconds of jitter,
// so records leave well out of arrival order.
func warmReorderBuffer(n int) (b *reorderBuffer, next func() (*Record, int64)) {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = reorderRecord(i+1, baseTime().Add(time.Duration(i+i*37%n)*time.Second))
	}
	maxSkew := time.Duration(n) * time.Second
	b = new(reorderBuffer)
	b.init(maxSkew)
	i, frontier := 0, int64(math.MinInt64)
	var r Record
	next = func() (*Record, int64) {
		r = recs[i%n]
		r.Start = r.Start.Add(time.Duration(i/n*n) * time.Second)
		i++
		frontier = max(frontier, r.Start.UnixNano())
		return &r, frontier - int64(maxSkew) + 1
	}
	for range 3 * n {
		r, bound := next()
		b.push(r, uint64(i))
		for b.peek(bound) != nil {
			b.pop()
		}
	}
	return b, next
}

// Accepting a record must not allocate once the slab has grown to the
// feed's reorder depth: no boxing, no per-record node.
func TestReorderPushPopZeroAlloc(t *testing.T) {
	b, next := warmReorderBuffer(256)
	seq, popped := uint64(1<<20), 0
	if avg := testing.AllocsPerRun(2000, func() {
		r, bound := next()
		b.push(r, seq)
		seq++
		for b.peek(bound) != nil {
			b.pop()
			popped++
		}
	}); avg != 0 {
		t.Errorf("push+pop on a warm buffer: %v allocs, want 0", avg)
	}
	if popped < 1900 || b.len() < 64 {
		t.Errorf("weak run: %d records popped, %d left buffered", popped, b.len())
	}
}

// The buffer must not keep a departed record's Payload reachable: pop
// drops it from the side table, which is empty once no buffered record
// carries one — and is never made at all for a feed without payloads.
func TestReorderPopReleasesPayload(t *testing.T) {
	// Records 1–3 carry none, so the side table is made for a slab that
	// already has slots; the second round reuses the vacated ones.
	carries := func(id int) bool { return id > 3 && id%3 != 0 }
	held := func(b *reorderBuffer) int {
		n := 0
		for _, p := range b.payloads {
			if p != nil {
				n++
			}
		}
		return n
	}
	var b reorderBuffer
	b.init(time.Minute)
	for round := 0; round < 2; round++ {
		for id := 1; id <= 8; id++ {
			r := reorderRecord(id, baseTime().Add(time.Duration(round*10+8-id)*time.Second))
			if !carries(id) {
				r.Payload = nil
			}
			b.push(&r, uint64(id))
			if id == 3 && round == 0 && b.payloads != nil {
				t.Fatal("records without a payload made the side table")
			}
		}
		for b.len() > 0 {
			c := b.peek(math.MaxInt64)
			departed, id := b.run[b.cur].slot, int(c.src)
			want := reorderRecord(id, time.Unix(0, c.start).UTC())
			if !carries(id) {
				want.Payload = nil
			}
			if got := b.record(departed); !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d came back altered:\n got %+v\nwant %+v", id, got, want)
			}
			b.pop()
			if b.payloads[departed] != nil {
				t.Fatalf("record %d popped, its payload still held in slot %d", id, departed)
			}
			carrying := 0
			for _, k := range b.sorted() {
				if carries(int(k.seq)) {
					carrying++
				}
			}
			if n := held(&b); n != carrying {
				t.Fatalf("%d payloads held with %d buffered records carrying one", n, carrying)
			}
		}
		if n := held(&b); n != 0 {
			t.Fatalf("%d payloads held by an empty buffer", n)
		}
	}
}

// The slab must stay free of pointers: a field that brings one back
// makes the garbage collector scan every buffered record again.
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
	elem := reflect.TypeOf(reorderBuffer{}.slab).Elem()
	if hasPointers(elem) {
		t.Errorf("reorder slab element %v holds a pointer", elem)
	}
	if hasPointers(reflect.TypeOf(reorderBuffer{}.link).Elem()) {
		t.Error("reorder link element holds a pointer")
	}
}

// BenchmarkStreamReorder is one record through a warm reorder buffer,
// 4096 deep — the per-record cost MaxSkew adds to the streaming
// extractor. CI gates its allocs/op at zero (benchgate -zero-allocs).
func BenchmarkStreamReorder(b *testing.B) {
	buf, next := warmReorderBuffer(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, bound := next()
		buf.push(r, uint64(1<<20+i))
		for buf.peek(bound) != nil {
			buf.pop()
		}
	}
}

// ---- the oracle: the binary heap the wheel replaced ---------------------

// reorderHeap is the reorder buffer as it was before the timing wheel: a
// binary min-heap of keys by (start, seq) over a record slab. It is kept
// as the reference the wheel is compared against.
type reorderHeap struct {
	keys []reorderKey
	slab []Record
	free []int32
}

func (k reorderKey) less(o reorderKey) bool { return k.compare(o) < 0 }

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

// heapStream is the reorder stage of a store shard as it was over the
// heap, statement for statement: push, then release up to frontier −
// MaxSkew. processed logs the order records left in.
type heapStream struct {
	maxSkew            time.Duration
	heap               reorderHeap
	frontier, released time.Time
	seq                uint64
	highwater          int
	processed          []IP
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
		h.processed = append(h.processed, r.Src)
		return true
	}
	h.seq++
	h.heap.push(r, h.seq)
	h.highwater = max(h.highwater, h.heap.len())
	h.release(h.frontier.UnixNano() - int64(h.maxSkew) + 1)
	return true
}

func (h *heapStream) release(bound int64) {
	for h.heap.len() > 0 && h.heap.minStart() < bound {
		r := h.heap.pop()
		h.released = r.Start
		h.processed = append(h.processed, r.Src)
	}
}

func (h *heapStream) releaseBefore(t time.Time) {
	h.release(t.UnixNano())
	if t.After(h.released) {
		h.released = t
	}
}

// ---- wheel against heap ---------------------------------------------------

// reorderSkews are the MaxSkews a script picks from: the zero-skew
// bypass, buckets one nanosecond wide, widths that divide nothing
// evenly, and the live default.
var reorderSkews = []time.Duration{0, 1, 700, 8 * time.Second, 5 * time.Minute, time.Hour}

// Script operations (see runReorderScript). Each is followed by one
// argument byte. Records trail the clock, as a monitor's exports trail
// the flows' starts.
const (
	opPushNear  = iota // a record within ±128 ns of the clock: ties, one bucket
	opPushFine         // … up to MaxSkew/16 behind it: neighbouring buckets
	opPushWide         // … up to 1.3 MaxSkew behind it: the whole ring, and late rejects
	opTick             // move the clock on by up to MaxSkew/64
	opIdle             // … by up to 16 MaxSkew, further than the ring spans
	opSeal             // ReleaseBefore a point within ±MaxSkew/2 of the clock
	opRestore          // State → RestoreState into a fresh extractor under reorderSkews[arg]
	opJumpYears        // step the clock arg years, either way
	opCount
)

// reorderCoverage counts how often scripts reached the paths that are
// easy to miss.
type reorderCoverage struct {
	rejects, restored, sealed, intoRun, folded, deepest int
}

// runReorderScript feeds one script to a store shard and to
// heapStream, and fails on the first step where they differ in what was
// accepted, the order records were processed in, how many are buffered,
// the earliest buffered start, or the released watermark. script[0]
// picks MaxSkew; the rest is (operation, argument) byte pairs.
func runReorderScript(t testing.TB, script []byte, cov *reorderCoverage) {
	if len(script) == 0 {
		return
	}
	maxSkew := reorderSkews[int(script[0])%len(reorderSkews)]
	unit := func(div int64) time.Duration { return time.Duration(max(1, int64(maxSkew)/div)) }

	var processed []IP
	opts := FeatureOptions{Hosts: func(ip IP) bool {
		processed = append(processed, ip)
		return true
	}}
	highwater := metrics.New().Gauge("stream/pending_highwater")
	se := newShardExtractor(opts, maxSkew)
	se.pendingHW = highwater
	ref := &heapStream{maxSkew: maxSkew}

	clock := baseTime()
	id := 0
	shrunk := false // restored under a smaller MaxSkew than was buffered for
	checked := 0    // processed[:checked] already matched the heap's
	check := func(step int, what string) {
		t.Helper()
		if len(processed) != len(ref.processed) {
			t.Fatalf("step %d (%s): processed %d records, heap %d", step, what, len(processed), len(ref.processed))
		}
		for ; checked < len(processed); checked++ {
			if processed[checked] != ref.processed[checked] {
				t.Fatalf("step %d (%s): position %d processed record %d, heap says %d", step, what, checked, processed[checked], ref.processed[checked])
			}
		}
		if se.pending.len() != ref.heap.len() {
			t.Fatalf("step %d (%s): %d buffered, heap holds %d", step, what, se.pending.len(), ref.heap.len())
		}
		if keys := se.pending.sorted(); len(keys) > 0 && keys[0].start != ref.heap.minStart() {
			t.Fatalf("step %d (%s): earliest buffered start %d, heap says %d", step, what, keys[0].start, ref.heap.minStart())
		}
		if !se.released.Equal(ref.released) {
			t.Fatalf("step %d (%s): released %v, heap says %v", step, what, se.released, ref.released)
		}
	}
	push := func(step int, start time.Time) {
		id++
		r := reorderRecord(id, start)
		if b := &se.pending; maxSkew > 0 && b.n > 0 && !start.Before(se.released) {
			switch q := start.UnixNano() >> b.shift; {
			case q < b.base:
				cov.intoRun++
			case uint64(q-b.base) >= wheelBuckets && !start.After(se.frontier):
				// (One that advances the frontier is pushed after the release.)
				if !shrunk {
					t.Fatalf("step %d: record at %v lands beyond the ring, %d buckets past base", step, start, q-b.base)
				}
				cov.folded++
			}
		}
		accepted := ref.add(&r)
		if err := se.Add(&r); (err == nil) != accepted {
			t.Fatalf("step %d: record at %v: err = %v, heap accepted = %v", step, start, err, accepted)
		}
		if !accepted {
			cov.rejects++
		}
		cov.deepest = max(cov.deepest, se.pending.len())
		check(step, "push")
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
			at := clock.Add(signed * unit(256))
			se.ReleaseBefore(at)
			ref.releaseBefore(at)
			cov.sealed += se.pending.len()
			check(step, "ReleaseBefore")
		case opRestore:
			st := se.State()
			if len(st.Pending) != se.pending.len() {
				t.Fatalf("step %d: snapshot lists %d pending, buffer holds %d", step, len(st.Pending), se.pending.len())
			}
			for i := 1; i < len(st.Pending); i++ {
				a, b := st.Pending[i-1], st.Pending[i]
				if a.Rec.Start.After(b.Rec.Start) || a.Rec.Start.Equal(b.Rec.Start) && a.Seq >= b.Seq {
					t.Fatalf("step %d: Pending[%d:%d] out of (start, seq) order", step, i-1, i+1)
				}
			}
			// The restoring extractor may run another MaxSkew (the old
			// extractor allowed it and just buffered longer or shorter
			// from then on); zero would strand what is buffered.
			if next := reorderSkews[int(arg)%len(reorderSkews)]; next > 0 && maxSkew > 0 {
				shrunk = shrunk || next < maxSkew
				maxSkew, ref.maxSkew = next, next
			}
			se = newShardExtractor(opts, maxSkew)
			se.pendingHW = highwater
			if err := se.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			cov.restored += len(st.Pending)
			if b := &se.pending; len(b.run) > b.cur {
				// RestoreState had to fold: the records span more than the ring.
				if !shrunk {
					t.Fatalf("step %d: a snapshot restored under its own MaxSkew overran the ring", step)
				}
				cov.folded++
			}
			check(step, "restore")
		case opJumpYears:
			to := clock.AddDate(int(int8(arg)), 0, 0)
			if y := to.Year(); y > 1700 && y < 2200 { // UnixNano's range
				clock = to
			}
		}
	}
	se.Drain()
	ref.release(ref.frontier.UnixNano() + 1)
	check(len(ops)/2, "Drain")
	if se.pending.len() != 0 {
		t.Fatalf("%d records left after Drain", se.pending.len())
	}
	if got := highwater.Value(); got != int64(ref.highwater) {
		t.Fatalf("pending_highwater %d, heap's was %d", got, ref.highwater)
	}
}

// reorderScripts are the cases the wheel could plausibly get wrong,
// spelled out; they also seed FuzzReorder.
var reorderScripts = map[string][]byte{
	"equal starts": {4,
		opPushNear, 0, opPushNear, 0, opPushNear, 0, opTick, 200, opPushNear, 0, opPushNear, 0,
		opTick, 255, opTick, 255, opPushNear, 0, opPushNear, 0, opIdle, 40, opPushNear, 0},
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
	"restore mid-stream": {4,
		opPushWide, 10, opPushWide, 20, opPushFine, 30, opPushFine, 226, opRestore, 4, opPushFine, 31,
		opTick, 255, opPushWide, 25, opRestore, 4, opTick, 255, opTick, 255, opPushNear, 0},
	"restore under a smaller skew": {5,
		opPushWide, 1, opPushWide, 20, opPushWide, 40, opPushWide, 60, opPushFine, 9, opRestore, 3,
		opPushWide, 100, opPushFine, 3, opPushWide, 127, opRestore, 2, opPushNear, 1, opPushWide, 127},
	"one-nanosecond buckets": {1,
		opPushNear, 0, opPushNear, 1, opPushNear, 1, opPushNear, 0, opTick, 1, opPushNear, 2, opPushNear, 120, opPushNear, 119},
}

// The timing wheel against the heap it replaced, step for step, on the
// named scripts and on random ones.
func TestReorderWheelMatchesHeap(t *testing.T) {
	var cov reorderCoverage
	for name, script := range reorderScripts {
		t.Run(name, func(t *testing.T) { runReorderScript(t, script, &cov) })
	}
	rng := rand.New(rand.NewSource(22))
	// Pushes and ticks dominate, so that the buffer runs deep between the
	// rarer seals, restores and jumps.
	mix := []byte{opPushNear, opPushFine, opPushFine, opPushFine, opPushWide, opPushWide, opTick, opTick}
	for i := 0; i < 200; i++ {
		script := []byte{byte(rng.Intn(len(reorderSkews)))}
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
	if cov.rejects == 0 || cov.restored == 0 || cov.sealed == 0 || cov.intoRun == 0 || cov.folded == 0 || cov.deepest < 128 {
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
