package flow

import (
	"cmp"
	"slices"
	"time"
)

// reorderBuffer holds the records a store shard has accepted but not
// yet processed, and hands them back in (start time, arrival) order.
//
// It is a timing wheel, not a priority queue. The extractor only ever
// holds records whose starts lie within MaxSkew of each other, so a ring
// of wheelBuckets buckets, each a power-of-two slice of that span wide,
// files a record by start with a shift and a mask. Nothing is ordered on
// the way in. Only when the release bound reaches the oldest non-empty
// bucket is that one bucket — tens to a few hundred records — sorted
// into run, and records leave from the front of run. A record that
// arrives for a bucket already taken into run (one nearly MaxSkew late)
// is placed there by binary search.
//
// Records sit still in a slab of compactRecords, 56 bytes without a
// pointer each, and are processed in place: the garbage collector never
// scans the slab and a vacated slot keeps nothing alive, so it is not
// cleared. The one field that is a pointer, Payload, waits in payloads
// under its slot; flow monitors export none, and that side table stays
// nil until a buffered record carries one. A bucket is a list threaded
// through link, which runs parallel to slab — as is the free list of
// vacated slots — so buckets cost no memory beyond the ring of list
// heads, and what is sorted are 24-byte keys. Taking a bucket reads
// each of its records' starts from the slab, which also pulls in,
// several at a time, the cache lines process is about to need one by
// one.
type reorderBuffer struct {
	slab     []compactRecord // buffered records, vacated slots included
	link     []slotLink      // link[i] goes with slab[i]
	payloads [][]byte        // nil, or payloads[i] goes with slab[i]
	free     int32           // first vacated slab slot, noSlot if none
	n        int             // records buffered

	run []reorderKey // every buffered key below bucket base, ascending from cur
	cur int

	shift uint  // a record's bucket is start >> shift
	base  int64 // ring holds buckets [base, base+wheelBuckets)
	ring  [wheelBuckets]int32
}

// wheelBuckets is the ring size. A MaxSkew of 5 minutes makes buckets
// 2²⁹ ns wide and uses 559 of them.
const (
	wheelBuckets = 1024
	noSlot       = int32(-1)
)

// reorderKey is one buffered record's place in the order. start is the
// record's start as Unix nanoseconds — exact for any time a flow monitor
// can report (time.Time.UnixNano covers 1678–2262). seq is the arrival
// number that keeps equal starts in arrival order, so a skewed stream
// reproduces the batch extractor's stable sort exactly.
type reorderKey struct {
	start int64
	seq   uint64
	slot  int32 // index into slab
}

// slotLink is what the buffer keeps per slab slot beside the record.
type slotLink struct {
	seq  uint64 // the record's arrival number
	next int32  // following slot on the same bucket's list, or free list
}

func (k reorderKey) compare(o reorderKey) int {
	if c := cmp.Compare(k.start, o.start); c != 0 {
		return c
	}
	return cmp.Compare(k.seq, o.seq)
}

// init sizes the buckets for records that stay buffered until the feed
// is maxSkew past their start: after a release up to frontier−maxSkew,
// a record at the frontier lands less than wheelBuckets buckets past
// base. (push copes with any start; past the ring it is just slower.)
func (b *reorderBuffer) init(maxSkew time.Duration) {
	for (int64(maxSkew)-1)>>b.shift >= wheelBuckets-1 {
		b.shift++
	}
	b.free = noSlot
	for i := range b.ring {
		b.ring[i] = noSlot
	}
}

func (b *reorderBuffer) len() int { return b.n }

// push buffers a copy of r under arrival number seq.
func (b *reorderBuffer) push(r *Record, seq uint64) {
	slot := b.free
	if slot != noSlot {
		b.free = b.link[slot].next
		b.slab[slot] = compactOf(r)
	} else {
		slot = int32(len(b.slab))
		b.slab = append(b.slab, compactOf(r))
		b.link = append(b.link, slotLink{})
		if b.payloads != nil {
			b.payloads = append(b.payloads, nil)
		}
	}
	if r.Payload != nil {
		if b.payloads == nil {
			b.payloads = make([][]byte, len(b.slab), cap(b.slab))
		}
		b.payloads[slot] = r.Payload
	}
	start := b.slab[slot].start
	q := start >> b.shift
	if b.n == 0 {
		// Move the ring to the record, so that neither an idle gap nor a
		// clock stepped years ahead is walked bucket by bucket or wraps.
		b.base = q
	}
	b.n++
	if q < b.base {
		b.insertRun(reorderKey{start: start, seq: seq, slot: slot})
		return
	}
	if uint64(q-b.base) >= wheelBuckets {
		b.foldRing()
		b.base = q
	}
	head := &b.ring[q&(wheelBuckets-1)]
	b.link[slot] = slotLink{seq: seq, next: *head}
	*head = slot
}

// insertRun places k in the sorted run — into the space popped keys left
// at its front when there is any, so that a run fed only this way still
// never outgrows the records it holds.
func (b *reorderBuffer) insertRun(k reorderKey) {
	i, _ := slices.BinarySearchFunc(b.run[b.cur:], k, reorderKey.compare)
	if b.cur == 0 {
		b.run = slices.Insert(b.run, i, k)
		return
	}
	b.cur--
	copy(b.run[b.cur:], b.run[b.cur+1:b.cur+1+i])
	b.run[b.cur+i] = k
}

// foldRing empties every bucket into the run. Only a record more than
// the ring's span past base needs it, which a store shard's Add never
// pushes; a snapshot restored under a smaller MaxSkew than it was taken
// with can.
func (b *reorderBuffer) foldRing() {
	b.run = b.run[:copy(b.run, b.run[b.cur:])]
	b.cur = 0
	for i := range b.ring {
		b.takeBucket(i)
	}
	slices.SortFunc(b.run, reorderKey.compare)
}

// takeBucket moves ring bucket i's keys to the run in arrival order
// (its list runs newest first) — sorted already if the feed was.
func (b *reorderBuffer) takeBucket(i int) {
	from := len(b.run)
	b.run = b.appendBucket(b.run, b.ring[i])
	slices.Reverse(b.run[from:])
	b.ring[i] = noSlot
}

// appendBucket appends the keys of the records listed from slot on.
func (b *reorderBuffer) appendBucket(keys []reorderKey, slot int32) []reorderKey {
	for ; slot != noSlot; slot = b.link[slot].next {
		keys = append(keys, reorderKey{start: b.slab[slot].start, seq: b.link[slot].seq, slot: slot})
	}
	return keys
}

// peek returns the earliest buffered record (by start, then arrival) if
// it starts before bound, else nil. The record stays in the buffer, and
// the pointer is good, until pop or the next push.
func (b *reorderBuffer) peek(bound int64) *compactRecord {
	if b.cur == len(b.run) && !b.refill(bound) {
		return nil
	}
	k := &b.run[b.cur]
	if k.start >= bound {
		return nil
	}
	return &b.slab[k.slot]
}

// refill sorts the oldest non-empty bucket into the exhausted run, if
// that bucket begins before bound.
func (b *reorderBuffer) refill(bound int64) bool {
	b.run, b.cur = b.run[:0], 0
	if b.n == 0 {
		return false
	}
	// The ring is not empty, so the walk ends within wheelBuckets steps
	// however far ahead bound is.
	for last := bound >> b.shift; b.base <= last; {
		i := int(b.base & (wheelBuckets - 1))
		b.base++
		if b.ring[i] != noSlot {
			b.takeBucket(i)
			slices.SortFunc(b.run, reorderKey.compare)
			return true
		}
	}
	return false
}

// pop removes the record peek just returned, and drops its Payload so
// the buffer does not keep it alive.
func (b *reorderBuffer) pop() {
	slot := b.run[b.cur].slot
	b.cur++
	b.n--
	if b.payloads != nil {
		b.payloads[slot] = nil
	}
	b.link[slot].next = b.free
	b.free = slot
}

// record rebuilds the Record buffered in slot.
func (b *reorderBuffer) record(slot int32) Record {
	var payload []byte
	if b.payloads != nil {
		payload = b.payloads[slot]
	}
	return b.slab[slot].record(payload)
}

// sorted lists every buffered key in (start, seq) order.
func (b *reorderBuffer) sorted() []reorderKey {
	keys := make([]reorderKey, 0, b.n)
	keys = append(keys, b.run[b.cur:]...)
	for _, slot := range b.ring[:] {
		keys = b.appendBucket(keys, slot)
	}
	slices.SortFunc(keys, reorderKey.compare)
	return keys
}
