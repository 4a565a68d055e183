package flow

// reorderBuffer holds the records a StreamExtractor has accepted but not
// yet processed, and hands them back in (start time, arrival) order.
//
// Records are 128 bytes and carry pointers (Payload, the Location inside
// each time.Time), so ordering them directly means every sift step
// copies a cache line and a half through GC write barriers. Instead the
// records sit still in a slab and the heap orders 24-byte keys that hold
// no pointers: the garbage collector never scans the key slice, a sift
// step is a plain three-word move, and comparing starts is one int64
// compare rather than a time.Time method call.
type reorderBuffer struct {
	keys []reorderKey // min-heap by (start, seq)
	slab []Record     // keys[i].slot indexes here; vacated slots are zero
	free []int32      // vacated slab slots, reused before the slab grows
}

// reorderKey is one buffered record's place in the order. start is the
// record's start as Unix nanoseconds — exact for any time a flow monitor
// can report (time.Time.UnixNano covers 1678–2262). seq is the arrival
// number that keeps equal starts in arrival order, so a skewed stream
// reproduces the batch extractor's stable sort exactly.
type reorderKey struct {
	start int64
	seq   uint64
	slot  int32
}

func (k reorderKey) less(o reorderKey) bool {
	if k.start != o.start {
		return k.start < o.start
	}
	return k.seq < o.seq
}

func (b *reorderBuffer) len() int { return len(b.keys) }

// minStart returns the earliest buffered start; the buffer must be
// non-empty.
func (b *reorderBuffer) minStart() int64 { return b.keys[0].start }

// push buffers a copy of r under arrival number seq.
func (b *reorderBuffer) push(r *Record, seq uint64) {
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

// pop removes and returns the earliest record (by start, then arrival).
// Its slab slot is zeroed before reuse so the buffer cannot keep the
// record's Payload alive.
func (b *reorderBuffer) pop() Record {
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

func (b *reorderBuffer) up(i int) {
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

func (b *reorderBuffer) down(i int) {
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
