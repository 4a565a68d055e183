package flow

// destTable is a store shard's one per-destination table, for all its
// hosts at once: for every (host, destination) pair of the open pane,
// the host's first contact (peer de-duplication, the churn grace test)
// and its latest flow start (the next interstitial gap), as Unix
// nanoseconds. Every record reads and writes both times for one pair,
// so the table is built for that one operation: upsert finds the pair's
// slot, or claims one, in a single probe sequence, and the caller
// updates the slot in place.
//
// It is open-addressed: an array of 24-byte slots holding no pointers,
// a Fibonacci hash of the key, linear probing. It grows before an insert
// would take it past 7/8 full, the load the runtime map grows at. The
// array need not be a power of two: multiply-shift range reduction maps
// a hash onto any size.
//
// A store's table is kept: a seal clears it in place (reset), so once
// the store has seen its busiest pane, folding allocates nothing here,
// and the table holds what that pane needed. It grows by a quarter at a
// time, so its load after a growth is 7/10, and it never sits below
// that. A table that doubled would sit anywhere from 7/16 to 7/8 full
// after the pane it grew in. On the bench's live-v5 day (two shards,
// hourly panes, the shards' mean), the quarter-step table holds 1,189 B
// a host after the first hour and 1,427 after the second; a doubling
// one would hold 1,137 after the first, but 2,185 after the second; the
// per-host tables it replaced held 1,521 and 2,205. A table used once
// (batch extraction, a merge, a restored pane) doubles instead: it
// allocates twice its final size in all, where growing by quarters
// allocates five times (on batch-day, 17 B a record against 33).
type destTable struct {
	slots []destSlot
	n     int  // slots in use
	kept  bool // grows by quarters: see above
}

// destSlot is one pair's entry; key 0 marks it empty.
type destSlot struct {
	key         uint64 // destKey(host slot, destination)
	first, last int64
}

// destKey packs a host's accumulator slot and a destination into a
// table key, never 0.
func destKey(slot int32, dst IP) uint64 { return uint64(slot+1)<<32 | uint64(dst) }

// The slot and destination a key packs.
func (s *destSlot) slot() int32 { return int32(s.key>>32) - 1 }
func (s *destSlot) dst() IP     { return IP(s.key) }

// destTableMin is the size a table starts at: 56 pairs before it first
// grows.
const destTableMin = 64

// upsert returns key's slot, claiming an empty one (fresh = true, both
// times zero) when the table has none for it yet.
func (t *destTable) upsert(key uint64) (s *destSlot, fresh bool) {
	if len(t.slots) > 0 {
		for i := t.home(key); ; {
			s = &t.slots[i]
			if s.key == 0 {
				break
			}
			if s.key == key {
				return s, false
			}
			if i++; i == len(t.slots) {
				i = 0
			}
		}
		if (t.n+1)*8 <= len(t.slots)*7 {
			s.key = key
			t.n++
			return s, true
		}
	}
	grown := 2 * len(t.slots)
	if t.kept {
		grown = len(t.slots) + len(t.slots)/4
	}
	t.resize(max(destTableMin, grown))
	return t.claim(key), true
}

// home maps key's hash onto the table: the top 32 bits of the Fibonacci
// product, scaled to the size (multiply-shift, no modulo).
func (t *destTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15 >> 32) * uint64(len(t.slots)) >> 32)
}

// claim takes the first empty slot on key's probe sequence for key,
// which the table must not hold yet, and must have room for.
func (t *destTable) claim(key uint64) *destSlot {
	i := t.home(key)
	for t.slots[i].key != 0 {
		if i++; i == len(t.slots) {
			i = 0
		}
	}
	s := &t.slots[i]
	s.key = key
	t.n++
	return s
}

// resize rehashes every entry into a new array of size slots.
func (t *destTable) resize(size int) {
	old := t.slots
	t.slots = make([]destSlot, size)
	t.n = 0
	for i := range old {
		if e := &old[i]; e.key != 0 {
			*t.claim(e.key) = *e
		}
	}
}

// reset empties the table and keeps its array.
func (t *destTable) reset() {
	clear(t.slots)
	t.n = 0
}
