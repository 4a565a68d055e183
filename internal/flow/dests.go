package flow

import "math/bits"

// destTable is one host's per-destination table: for every destination
// the host contacted, its first contact (peer de-duplication, the churn
// grace test) and its latest flow start (the next interstitial gap), as
// Unix nanoseconds. Every record reads and writes both times for one
// destination, so the table is built for that one operation: upsert
// finds the destination's slot, or claims one, in a single probe
// sequence, and the caller updates the slot in place.
//
// It is open-addressed — a power-of-two array of 24-byte slots holding
// no pointers, a Fibonacci hash of the address and linear probing — and
// doubles before an insert would take it past 7/8 full, the load the
// runtime map grows at. Growing at 3/4 instead made the per-host state
// of a synthetic campus day 6% larger.
type destTable struct {
	slots []destSlot
	n     int  // slots in use
	shift uint // 32 − log₂ len(slots): a hash's top bits pick the home slot
}

// destSlot is one destination's entry; a slot is empty until used.
type destSlot struct {
	dst         IP
	used        bool
	first, last int64
}

// destTableMin is the size a table starts at: seven destinations before
// the first doubling.
const destTableMin = 8

// upsert returns dst's slot, claiming an empty one (fresh = true, both
// times zero) when the table has none for it yet.
func (t *destTable) upsert(dst IP) (s *destSlot, fresh bool) {
	if len(t.slots) > 0 {
		mask := len(t.slots) - 1
		for i := t.home(dst); ; i = (i + 1) & mask {
			s = &t.slots[i]
			if !s.used {
				break
			}
			if s.dst == dst {
				return s, false
			}
		}
		if (t.n+1)*8 <= len(t.slots)*7 {
			s.dst, s.used = dst, true
			t.n++
			return s, true
		}
	}
	t.resize(max(destTableMin, 2*len(t.slots)))
	return t.claim(dst), true
}

// reserve sizes an empty table for n destinations, so filling it does
// not grow it: the size n inserts would have grown it to.
func (t *destTable) reserve(n int) {
	size := destTableMin
	for n*8 > size*7 {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

func (t *destTable) home(dst IP) int {
	return int(uint32(dst) * 0x9E3779B9 >> t.shift)
}

// claim takes the first empty slot on dst's probe sequence for dst,
// which the table must not hold yet, and must have room for.
func (t *destTable) claim(dst IP) *destSlot {
	mask := len(t.slots) - 1
	i := t.home(dst)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	s := &t.slots[i]
	s.dst, s.used = dst, true
	t.n++
	return s
}

// resize rehashes every entry into a new array of size slots.
func (t *destTable) resize(size int) {
	old := t.slots
	t.slots = make([]destSlot, size)
	t.shift = uint(32 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for i := range old {
		if e := &old[i]; e.used {
			*t.claim(e.dst) = *e
		}
	}
}
