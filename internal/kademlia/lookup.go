package kademlia

import (
	"math/rand"
	"time"
)

// Attempt records one query the iterative lookup issued: the peer it
// contacted and whether the peer answered. Traffic generators convert
// attempts into flow records (answered → established, silent → failed).
type Attempt struct {
	Peer Contact
	// Responded is true when the peer was online and the query answered.
	Responded bool
}

// LookupConfig tunes the iterative lookup.
type LookupConfig struct {
	// Alpha is the query parallelism (Kademlia's α, typically 3).
	Alpha int
	// K is the closeness set size; the lookup terminates when the k
	// closest known peers have all been queried.
	K int
	// LossRate is the probability an online peer still fails to answer
	// (packet loss, NAT); keeps failure rates realistic even in a
	// well-connected overlay.
	LossRate float64
	// MaxQueries bounds total attempts per lookup.
	MaxQueries int
}

// DefaultLookupConfig mirrors common Kademlia deployments.
func DefaultLookupConfig() LookupConfig {
	return LookupConfig{Alpha: 3, K: DefaultK, LossRate: 0.05, MaxQueries: 32}
}

// IterativeFindNode runs a Kademlia node lookup for target at virtual
// time now: repeatedly query the α closest un-queried candidates, merge
// the responders' closest-peer answers into the candidate set, and stop
// when the k closest candidates have been queried (or the query budget is
// spent). Responders (and the peers they report) are folded into rt,
// which is how a long-running peer's routing table converges to a stable
// contact set.
//
// The returned attempts preserve query order.
func IterativeFindNode(rt *RoutingTable, ov *Overlay, target NodeID, now time.Time, rng *rand.Rand, cfg LookupConfig) []Attempt {
	return walk(rt, ov, target, now, rng, cfg, nil)
}

// walk is the iterative lookup behind FIND_NODE and FIND_VALUE. stop, if
// non-nil, sees each responder right after rt refreshes it; returning true
// ends the walk there, before the responder's closest-peer answer is read.
func walk(rt *RoutingTable, ov *Overlay, target NodeID, now time.Time, rng *rand.Rand, cfg LookupConfig, stop func(responder Contact) bool) []Attempt {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 3
	}
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	if cfg.MaxQueries <= 0 {
		cfg.MaxQueries = 32
	}

	// queried holds every candidate ever added: true once it was queried.
	queried := make(map[NodeID]bool)
	var cands []Contact
	addCandidate := func(c Contact) {
		if _, known := queried[c.ID]; known || c.ID == rt.Self() {
			return
		}
		queried[c.ID] = false
		cands = append(cands, c)
	}
	for _, c := range rt.Closest(target, cfg.K) {
		addCandidate(c)
	}

	var attempts []Attempt
	for len(attempts) < cfg.MaxQueries {
		cands = byDistance(cands, target, len(cands))
		// Collect the next α un-queried candidates among the k closest.
		var batch []Contact
		for i := 0; i < min(len(cands), cfg.K) && len(batch) < cfg.Alpha; i++ {
			if !queried[cands[i].ID] {
				batch = append(batch, cands[i])
			}
		}
		if len(batch) == 0 {
			break // the k closest are all queried: lookup converged
		}
		for _, peer := range batch {
			if len(attempts) >= cfg.MaxQueries {
				break
			}
			queried[peer.ID] = true
			responded := ov.Online(peer.ID, now) && rng.Float64() >= cfg.LossRate
			attempts = append(attempts, Attempt{Peer: peer, Responded: responded})
			if !responded {
				// Kademlia drops unresponsive contacts from the table.
				rt.Remove(peer.ID)
				continue
			}
			refreshed := peer
			refreshed.LastSeen = now
			rt.Update(refreshed)
			if stop != nil && stop(peer) {
				return attempts
			}
			// The responder reports the k closest peers *it knows about*;
			// that knowledge is stale, so some reported peers are already
			// offline — exactly the churn that makes P2P hosts' failed
			// connection rates high.
			for _, learned := range ov.ClosestAny(target, cfg.K) {
				if learned.ID == peer.ID {
					continue
				}
				addCandidate(learned)
				rt.Update(learned)
			}
		}
	}
	return attempts
}

// Bootstrap seeds a routing table from a peer list (e.g. the bot binary's
// hard-coded peers) and runs a self-lookup — the standard Kademlia join.
// It returns the join's query attempts.
func Bootstrap(rt *RoutingTable, ov *Overlay, seeds []Contact, now time.Time, rng *rand.Rand, cfg LookupConfig) []Attempt {
	for _, c := range seeds {
		rt.Update(c)
	}
	return IterativeFindNode(rt, ov, rt.Self(), now, rng, cfg)
}
