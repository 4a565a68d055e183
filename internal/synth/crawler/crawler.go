// Package crawler generates DHT crawler/indexer hosts — the designed
// hard case for the detection pipeline. A crawler walks the Kademlia
// overlay continuously on machine timers, contacting an endless stream of
// never-seen-before peers with churn-driven failures (a bot's churn and
// failure profile), while periodically pushing multi-MB crawl snapshots
// to its mirror endpoints (a Trader's upload volume). It coordinates with
// nothing: any detector that flags it is paying false positives for
// behavioral resemblance alone.
package crawler

import (
	"fmt"
	"math/rand"
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
	"plotters/internal/synth"
)

// crawlerDHTPort is the source port the walker queries from.
const crawlerDHTPort = 6881

// Config parameterizes one crawler host.
type Config struct {
	// Host is the internal address running the crawler.
	Host flow.IP
	// Window bounds the crawler's activity.
	Window flow.Window
	// Network is the DHT population being crawled.
	Network *kademlia.Overlay
	// Mirrors supplies the external endpoints crawl snapshots are pushed
	// to.
	Mirrors *synth.ExternalIPPool
	// WalkInterval is the machine pacing between crawl rounds.
	WalkInterval time.Duration
	// SyncInterval is the pacing between snapshot pushes.
	SyncInterval time.Duration
	// SyncMedian is the median bytes uploaded per snapshot push — the
	// Trader-scale volume that defeats any pure-volume separation.
	SyncMedian float64
}

// DefaultConfig returns a crawler shaped like public DHT indexers:
// walk rounds every half minute, snapshot pushes every few minutes.
func DefaultConfig(host flow.IP, window flow.Window, network *kademlia.Overlay, mirrors *synth.ExternalIPPool) Config {
	return Config{
		Host: host, Window: window, Network: network, Mirrors: mirrors,
		WalkInterval: 30 * time.Second,
		SyncInterval: 4 * time.Minute,
		SyncMedian:   2_000_000,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Host == 0 {
		return fmt.Errorf("crawler: host unset")
	}
	if c.Network == nil {
		return fmt.Errorf("crawler: DHT network unset")
	}
	if c.Mirrors == nil {
		return fmt.Errorf("crawler: mirror pool unset")
	}
	if c.Window.Duration() <= 0 {
		return fmt.Errorf("crawler: empty window")
	}
	if c.WalkInterval <= 0 || c.SyncInterval <= 0 {
		return fmt.Errorf("crawler: intervals must be positive")
	}
	if c.SyncMedian <= 0 {
		return fmt.Errorf("crawler: sync median must be positive")
	}
	return nil
}

// Crawler simulates one DHT crawler/indexer host.
type Crawler struct {
	cfg   Config
	sim   *simnet.Simulator
	rng   *rand.Rand
	ports synth.PortAlloc
	rt    *kademlia.RoutingTable

	mirrors []flow.IP
}

// New creates a crawler and derives its private RNG stream.
func New(cfg Config, sim *simnet.Simulator) (*Crawler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Crawler{cfg: cfg, sim: sim, rng: sim.Fork()}
	c.rt = kademlia.NewRoutingTable(kademlia.RandomID(c.rng), kademlia.DefaultK)
	// A fixed, small mirror set: the crawler's only repeat destinations.
	for i := 0; i < 3; i++ {
		c.mirrors = append(c.mirrors, c.cfg.Mirrors.PickUniform(c.rng))
	}
	return c, nil
}

// Start bootstraps the routing table and schedules the walk and sync
// loops across the window.
func (c *Crawler) Start() {
	for _, s := range c.cfg.Network.SampleContacts(c.rng, 16) {
		c.rt.Update(s)
	}
	c.sim.Schedule(c.cfg.Window.From.Add(simnet.UniformDur(c.rng, 0, c.cfg.WalkInterval)), c.walkLoop)
	c.sim.Schedule(c.cfg.Window.From.Add(simnet.UniformDur(c.rng, 0, c.cfg.SyncInterval)), c.syncLoop)
}

func (c *Crawler) active() bool { return c.cfg.Window.Contains(c.sim.Now()) }

// walkLoop runs one crawl round: several iterative lookups toward random
// IDs, sweeping fresh regions of the address space every round. Almost
// every queried peer is new, and overlay churn makes many of them dead —
// the bot-like half of the profile.
func (c *Crawler) walkLoop() {
	if !c.active() {
		return
	}
	walks := 2 + c.rng.Intn(3)
	for i := 0; i < walks; i++ {
		attempts := kademlia.IterativeFindNode(c.rt, c.cfg.Network, kademlia.RandomID(c.rng), c.sim.Now(), c.rng, kademlia.DefaultLookupConfig())
		synth.EmitLookup(c.sim, c.rng, attempts, 30*time.Millisecond, 300*time.Millisecond, c.active, func(a kademlia.Attempt) synth.FlowSpec {
			return synth.FlowSpec{
				Src: c.cfg.Host, Dst: a.Peer.Addr,
				SrcPort: crawlerDHTPort, DstPort: a.Peer.Port, Proto: flow.UDP,
				Duration: 250 * time.Millisecond,
				ReqBytes: uint64(simnet.LogNormalMedian(c.rng, 110, 0.2)),
				RspBytes: uint64(simnet.LogNormalMedian(c.rng, 420, 0.4)),
				Success:  a.Responded,
				Payload:  []byte("d1:ad2:id20:crawlcrawlcrawlcrawl"),
			}
		})
	}
	c.sim.After(simnet.Jitter(c.rng, c.cfg.WalkInterval, 0.15), c.walkLoop)
}

// syncLoop pushes the latest crawl snapshot to each mirror — the
// Trader-scale upload volume half of the profile.
func (c *Crawler) syncLoop() {
	if !c.active() {
		return
	}
	for _, m := range c.mirrors {
		m := m
		c.sim.After(simnet.UniformDur(c.rng, 0, 10*time.Second), func() {
			if !c.active() {
				return
			}
			synth.EmitFlow(c.sim, synth.FlowSpec{
				Src: c.cfg.Host, Dst: m,
				SrcPort: c.ports.Next(), DstPort: 443, Proto: flow.TCP,
				Duration: simnet.UniformDur(c.rng, 5*time.Second, time.Minute),
				ReqBytes: uint64(simnet.LogNormalMedian(c.rng, c.cfg.SyncMedian, 0.8)),
				RspBytes: uint64(simnet.LogNormalMedian(c.rng, 900, 0.4)),
				Success:  !simnet.Bernoulli(c.rng, 0.02),
			})
		})
	}
	c.sim.After(simnet.Jitter(c.rng, c.cfg.SyncInterval, 0.1), c.syncLoop)
}
