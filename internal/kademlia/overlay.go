package kademlia

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"plotters/internal/flow"
)

// OverlayConfig parameterizes the simulated global DHT population that
// internal peers (bots and file-sharers) interact with.
type OverlayConfig struct {
	// Nodes is the overlay population size.
	Nodes int
	// Horizon is the simulated period for which per-node online/offline
	// session schedules are materialized.
	Start   time.Time
	Horizon time.Duration
	// MedianSession is the median online-session length; peer-to-peer
	// measurement studies report sessions of minutes to tens of minutes.
	MedianSession time.Duration
	// MedianOffline is the median gap between sessions.
	MedianOffline time.Duration
	// SessionSigma is the log-normal spread of both durations.
	SessionSigma float64
	// AvoidSubnets lists prefixes (e.g. the monitored campus network)
	// that overlay nodes must not occupy.
	AvoidSubnets []flow.Subnet
	// Port is the overlay's UDP service port (e.g. Overnet uses a
	// per-install port; a fixed one keeps traces simple).
	Port uint16
}

// Overlay is the simulated external DHT population: every node has an
// identifier, a public address, and a precomputed online/offline session
// schedule over the simulation horizon. The overlay answers the two
// queries generators need: "is this peer reachable now?" and "which
// online peers are closest to this key?".
type Overlay struct {
	cfg      OverlayConfig
	contacts []Contact
	// schedules[i] holds ascending state-transition times for node i; the
	// node starts offline and toggles at each transition.
	schedules [][]time.Time
	byID      map[NodeID]int
	byAddr    map[flow.IP]int
	// values is the DHT's stored key→value bindings per node (lazily
	// allocated; see store.go).
	values map[storeKey]string
}

// NewOverlay builds the population deterministically from rng.
func NewOverlay(cfg OverlayConfig, rng *rand.Rand) (*Overlay, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("kademlia: overlay needs nodes, got %d", cfg.Nodes)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("kademlia: overlay horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.MedianSession <= 0 || cfg.MedianOffline <= 0 {
		return nil, fmt.Errorf("kademlia: session/offline medians must be positive")
	}
	o := &Overlay{
		cfg:       cfg,
		contacts:  make([]Contact, cfg.Nodes),
		schedules: make([][]time.Time, cfg.Nodes),
		byID:      make(map[NodeID]int, cfg.Nodes),
		byAddr:    make(map[flow.IP]int, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := RandomID(rng)
		for _, exists := o.byID[id]; exists; _, exists = o.byID[id] {
			id = RandomID(rng)
		}
		addr := o.randomPublicIP(rng)
		for _, taken := o.byAddr[addr]; taken; _, taken = o.byAddr[addr] {
			addr = o.randomPublicIP(rng)
		}
		o.contacts[i] = Contact{ID: id, Addr: addr, Port: cfg.Port}
		o.byID[id] = i
		o.byAddr[addr] = i
		o.schedules[i] = o.buildSchedule(rng)
	}
	return o, nil
}

// randomPublicIP draws an address outside the avoided prefixes and
// outside reserved ranges (0/8, 10/8, 127/8, 224+/4 multicast).
func (o *Overlay) randomPublicIP(rng *rand.Rand) flow.IP {
	for {
		ip := flow.IP(rng.Uint32())
		first, _, _, _ := ip.Octets()
		if first == 0 || first == 10 || first == 127 || first >= 224 {
			continue
		}
		avoided := false
		for _, sn := range o.cfg.AvoidSubnets {
			if sn.Contains(ip) {
				avoided = true
				break
			}
		}
		if !avoided {
			return ip
		}
	}
}

// buildSchedule materializes alternating offline/online transitions over
// the horizon. The node starts offline for a random initial gap, then
// alternates log-normal online/offline periods.
func (o *Overlay) buildSchedule(rng *rand.Rand) []time.Time {
	var transitions []time.Time
	t := o.cfg.Start
	end := o.cfg.Start.Add(o.cfg.Horizon)
	// Random initial phase so the population isn't synchronized.
	t = t.Add(time.Duration(rng.Int63n(int64(o.cfg.MedianOffline) + 1)))
	online := false
	for t.Before(end) {
		transitions = append(transitions, t)
		var median time.Duration
		if online {
			median = o.cfg.MedianOffline
		} else {
			median = o.cfg.MedianSession
		}
		d := time.Duration(lognormal(rng, float64(median), o.cfg.SessionSigma))
		if d < time.Second {
			d = time.Second
		}
		t = t.Add(d)
		online = !online
	}
	return transitions
}

// lognormal samples a log-normal duration (in float64 nanoseconds) with
// the given median. Inlined rather than importing simnet to keep this
// package's dependencies limited to the flow model.
func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// Size returns the overlay population.
func (o *Overlay) Size() int { return len(o.contacts) }

// Contact returns the i-th node's contact info.
func (o *Overlay) Contact(i int) Contact { return o.contacts[i] }

// Online reports whether the node with the given id is reachable at t.
func (o *Overlay) Online(id NodeID, t time.Time) bool {
	i, ok := o.byID[id]
	if !ok {
		return false
	}
	return o.onlineIdx(i, t)
}

func (o *Overlay) onlineIdx(i int, t time.Time) bool {
	sched := o.schedules[i]
	// Number of transitions at or before t; odd = online (starts offline).
	n := sort.Search(len(sched), func(k int) bool { return sched[k].After(t) })
	return n%2 == 1
}

// SampleContacts draws n distinct overlay contacts uniformly (online or
// not) — e.g. a bot binary's hard-coded bootstrap peer list.
func (o *Overlay) SampleContacts(rng *rand.Rand, n int) []Contact {
	if n > len(o.contacts) {
		n = len(o.contacts)
	}
	idx := rng.Perm(len(o.contacts))[:n]
	out := make([]Contact, n)
	for i, j := range idx {
		out[i] = o.contacts[j]
	}
	return out
}

// ClosestAny returns up to n overlay nodes closest to target regardless
// of their current reachability — the *stale* view a peer's routing table
// actually holds, and what a FIND_NODE response realistically reports.
// Querying stale contacts is where P2P networks' high failed-connection
// rates come from (§V-A).
func (o *Overlay) ClosestAny(target NodeID, n int) []Contact {
	type cand struct {
		c    Contact
		dist NodeID
	}
	cands := make([]cand, len(o.contacts))
	for i := range o.contacts {
		cands[i] = cand{c: o.contacts[i], dist: o.contacts[i].ID.XOR(target)}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist.Less(cands[b].dist) })
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]Contact, len(cands))
	for i := range cands {
		out[i] = cands[i].c
	}
	return out
}
