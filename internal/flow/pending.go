package flow

// pendingLists holds the records a store shard has accepted but not yet
// folded, in one list per monitored host.
//
// The features that depend on order — θ_hm's gaps between consecutive
// flows to one destination, θ_churn's first contacts after the host's
// grace period — depend only on each host's own order. So the shard
// does not restore one global start order. It keeps every host's
// pending records in (start, arrival) order and folds a host's oldest
// ones once the feed is MaxSkew past them.
//
// A host's list is threaded through a slab of 32-byte entries, and so is
// the free list of vacated slots: once the slab has grown to the feed's
// depth, filing and folding allocate nothing. An entry carries only
// what observe reads and holds no pointer: the garbage collector never
// scans the slab, and a vacated slot keeps nothing alive. Filing a
// record walks back from the list's tail past the entries that start
// later, so it costs as many steps as the record arrived out of order
// within its own host.
//
// A host's queue outlives the pane: it is made on the host's first
// record and never removed. While the host has records in the open
// pane it names the host's slot in the shard's accumulator. The active
// list names the queues that may hold entries, so a sweep visits the
// hosts with something pending, not every host the shard has seen.
type pendingLists struct {
	slab   []pendingEntry
	free   int32 // first vacated slab slot, noEntry if none
	n      int   // entries filed
	queues []hostQueue
	index  map[IP]int32 // host -> its queue
	// active lists every queue that holds entries, once each, and may
	// list queues a fold has since emptied: sweep drops those.
	active []int32
}

// pendingEntry is one filed record and its list links.
type pendingEntry struct {
	compactRecord
	prev, next int32 // neighbours on the host's list; next also chains the free list
}

// hostQueue is one monitored host's list, oldest first, and its slot.
type hostQueue struct {
	head, tail int32 // oldest and newest entry, noEntry when empty
	host       IP
	// slot is the host's accumulator slot in the open pane, noEntry
	// until the pane's first fold for the host; take clears it.
	slot   int32
	listed bool // on the active list
}

const noEntry = int32(-1)

func newPendingLists() pendingLists {
	return pendingLists{free: noEntry, index: make(map[IP]int32)}
}

// queue returns the index of host's queue, making an empty one the
// first time.
func (p *pendingLists) queue(host IP) int32 {
	if i, ok := p.index[host]; ok {
		return i
	}
	return p.add(host)
}

// add makes an empty queue for host, which has none, and returns its
// index.
func (p *pendingLists) add(host IP) int32 {
	i := int32(len(p.queues))
	p.index[host] = i
	p.queues = append(p.queues, hostQueue{head: noEntry, tail: noEntry, host: host, slot: noEntry})
	return i
}

// file puts c on queue i after every entry that starts no later than c
// does, and lists the queue as active if it was not.
func (p *pendingLists) file(i int32, c compactRecord) {
	q := &p.queues[i]
	if !q.listed {
		q.listed = true
		p.active = append(p.active, i)
	}
	slot := p.free
	if slot != noEntry {
		p.free = p.slab[slot].next
	} else {
		slot = int32(len(p.slab))
		p.slab = append(p.slab, pendingEntry{})
	}
	p.n++
	after := q.tail
	for after != noEntry && p.slab[after].start > c.start {
		after = p.slab[after].prev
	}
	e := &p.slab[slot]
	e.compactRecord, e.prev = c, after
	if after == noEntry {
		e.next, q.head = q.head, slot
	} else {
		e.next, p.slab[after].next = p.slab[after].next, slot
	}
	if e.next == noEntry {
		q.tail = slot
	} else {
		p.slab[e.next].prev = slot
	}
}

// ready reports whether q's oldest entry starts before bound (Unix ns).
func (p *pendingLists) ready(q *hostQueue, bound int64) bool {
	return q.head != noEntry && p.slab[q.head].start < bound
}

// pop unlinks q's oldest entry and vacates its slot. The returned
// pointer is good until the next file.
func (p *pendingLists) pop(q *hostQueue) *compactRecord {
	slot := q.head
	e := &p.slab[slot]
	q.head = e.next
	if q.head == noEntry {
		q.tail = noEntry
	} else {
		p.slab[q.head].prev = noEntry
	}
	e.next, p.free = p.free, slot
	p.n--
	return &e.compactRecord
}
