package kademlia

import (
	"sort"
	"time"

	"plotters/internal/flow"
)

// DefaultK is the k-bucket capacity (Kademlia's replication parameter).
const DefaultK = 8

// Contact is a known peer: its DHT identifier and network endpoint.
type Contact struct {
	ID       NodeID
	Addr     flow.IP
	Port     uint16
	LastSeen time.Time
}

// RoutingTable is a Kademlia routing table: IDBits k-buckets, where
// bucket i holds contacts whose IDs share exactly i leading bits with the
// owner. Buckets keep least-recently-seen contacts at the head and evict
// them first when full — the bias toward long-lived peers that gives
// Kademlia (and Plotters built on it) a stable contact set.
type RoutingTable struct {
	self    NodeID
	k       int
	buckets [IDBits][]Contact
	size    int
}

// NewRoutingTable creates a table owned by self with bucket capacity k
// (DefaultK if k <= 0).
func NewRoutingTable(self NodeID, k int) *RoutingTable {
	if k <= 0 {
		k = DefaultK
	}
	return &RoutingTable{self: self, k: k}
}

// Self returns the owner's identifier.
func (rt *RoutingTable) Self() NodeID { return rt.self }

// Size returns the number of stored contacts.
func (rt *RoutingTable) Size() int { return rt.size }

// K returns the bucket capacity.
func (rt *RoutingTable) K() int { return rt.k }

// bucketIndex returns the bucket for id, or -1 for the owner's own id.
func (rt *RoutingTable) bucketIndex(id NodeID) int {
	cpl := rt.self.CommonPrefixLen(id)
	if cpl >= IDBits {
		return -1
	}
	return cpl
}

// Update records that a contact was seen: refreshes it if present
// (moving it to the tail, most-recently-seen), inserts it if the bucket
// has room, and otherwise evicts the least-recently-seen entry. Real
// Kademlia pings the LRS entry before eviction; the simulation folds that
// into the caller's traffic model. The owner's own ID is ignored.
func (rt *RoutingTable) Update(c Contact) {
	idx := rt.bucketIndex(c.ID)
	if idx < 0 {
		return
	}
	b := rt.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			// Refresh: move to tail.
			copy(b[i:], b[i+1:])
			b[len(b)-1] = c
			return
		}
	}
	if len(b) < rt.k {
		rt.buckets[idx] = append(b, c)
		rt.size++
		return
	}
	// Bucket full: evict the least-recently-seen head.
	copy(b, b[1:])
	b[len(b)-1] = c
}

// Remove deletes a contact (e.g. after repeated failed pings).
func (rt *RoutingTable) Remove(id NodeID) bool {
	idx := rt.bucketIndex(id)
	if idx < 0 {
		return false
	}
	b := rt.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			rt.buckets[idx] = append(b[:i], b[i+1:]...)
			rt.size--
			return true
		}
	}
	return false
}

// Contains reports whether id is stored.
func (rt *RoutingTable) Contains(id NodeID) bool {
	idx := rt.bucketIndex(id)
	if idx < 0 {
		return false
	}
	for _, c := range rt.buckets[idx] {
		if c.ID == id {
			return true
		}
	}
	return false
}

// Closest returns up to n stored contacts ordered by XOR distance to
// target (closest first).
func (rt *RoutingTable) Closest(target NodeID, n int) []Contact {
	return byDistance(rt.Contacts(), target, n)
}

// byDistance returns up to n of cs in a fresh slice, ordered by XOR
// distance to target (closest first). Each distance is computed once; cs
// itself is left untouched.
func byDistance(cs []Contact, target NodeID, n int) []Contact {
	type ranked struct {
		c    Contact
		dist NodeID
	}
	rs := make([]ranked, len(cs))
	for i, c := range cs {
		rs[i] = ranked{c: c, dist: c.ID.XOR(target)}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].dist.Less(rs[b].dist) })
	out := make([]Contact, min(len(rs), n))
	for i := range out {
		out[i] = rs[i].c
	}
	return out
}

// Contacts returns every stored contact. The slice is freshly allocated.
func (rt *RoutingTable) Contacts() []Contact {
	out := make([]Contact, 0, rt.size)
	for i := range rt.buckets {
		out = append(out, rt.buckets[i]...)
	}
	return out
}
