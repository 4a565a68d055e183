package kademlia

import (
	"math/rand"
	"time"
)

// The DHT's value layer: Overnet/Kademlia nodes STORE key→value bindings
// on the k nodes closest to the key, and FIND_VALUE walks toward the key
// until a holder answers. Storm's command rendezvous is exactly this —
// the botmaster publishes under date-derived keys, bots search them.

// storeKey is one (node, key) binding slot.
type storeKey struct {
	node NodeID
	key  NodeID
}

// ensureStore lazily allocates the overlay's value table.
func (o *Overlay) ensureStore() {
	if o.values == nil {
		o.values = make(map[storeKey]string)
	}
}

// Store records a key→value binding at the given overlay node (the node
// accepted a STORE RPC).
func (o *Overlay) Store(node NodeID, key NodeID, value string) {
	if _, ok := o.byID[node]; !ok {
		return
	}
	o.ensureStore()
	o.values[storeKey{node, key}] = value
}

// Value reports the binding a node holds for key, if any.
func (o *Overlay) Value(node NodeID, key NodeID) (string, bool) {
	if o.values == nil {
		return "", false
	}
	v, ok := o.values[storeKey{node, key}]
	return v, ok
}

// PublishResult describes an IterativePublish: the lookup's query
// attempts followed by the STORE attempts against the closest responders.
type PublishResult struct {
	Lookup []Attempt
	Stores []Attempt
	// Stored counts nodes now holding the value.
	Stored int
}

// IterativePublish locates the k online nodes closest to key and sends
// each a STORE. Returns every network attempt so traffic generators can
// emit the corresponding flows.
func IterativePublish(rt *RoutingTable, ov *Overlay, key NodeID, value string, now time.Time, rng *rand.Rand, cfg LookupConfig) PublishResult {
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	result := PublishResult{
		Lookup: IterativeFindNode(rt, ov, key, now, rng, cfg),
	}
	// STORE on the k closest nodes the lookup actually reached — the
	// responders, ordered by XOR distance to the key (k-bucket eviction
	// in the publisher's own table must not decide placement).
	responders := make([]Contact, 0, len(result.Lookup))
	seen := make(map[NodeID]bool)
	for _, a := range result.Lookup {
		if a.Responded && !seen[a.Peer.ID] {
			seen[a.Peer.ID] = true
			responders = append(responders, a.Peer)
		}
	}
	for _, c := range byDistance(responders, key, cfg.K) {
		responded := ov.Online(c.ID, now) && rng.Float64() >= cfg.LossRate
		result.Stores = append(result.Stores, Attempt{Peer: c, Responded: responded})
		if responded {
			ov.Store(c.ID, key, value)
			result.Stored++
		}
	}
	return result
}

// FindValueResult describes an IterativeFindValue.
type FindValueResult struct {
	Value    string
	Found    bool
	Attempts []Attempt
}

// IterativeFindValue walks toward key like IterativeFindNode but stops as
// soon as a queried node holds a binding for it.
func IterativeFindValue(rt *RoutingTable, ov *Overlay, key NodeID, now time.Time, rng *rand.Rand, cfg LookupConfig) FindValueResult {
	var result FindValueResult
	result.Attempts = walk(rt, ov, key, now, rng, cfg, func(responder Contact) bool {
		result.Value, result.Found = ov.Value(responder.ID, key)
		return result.Found
	})
	return result
}
