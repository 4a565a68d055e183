package plotter

import (
	"fmt"
	"math/rand"
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
	"plotters/internal/synth"
)

// stormPort is the Overnet UDP port Storm variants commonly used.
const stormPort = 7871

// StormConfig parameterizes a Storm trace. Storm's behavior follows the
// published analyses: bots bootstrap from a hard-coded peer list, then
// run fixed machine timers — periodic Overnet searches for time-varying
// keys (to find botmaster commands) and publicize announcements, plus
// keepalive pings to routing-table contacts. Control messages are tiny;
// the P2P layer is used for rendezvous, not data transfer.
type StormConfig struct {
	// Bots is the number of infected machines in the honeynet (13 in the
	// paper's trace).
	Bots int
	// Day is the trace day (24 hours from midnight).
	Day time.Time
	// OverlayNodes is the simulated Overnet population size.
	OverlayNodes int
	// SeedPeers is the bot binary's hard-coded bootstrap list size.
	SeedPeers int
	// SearchPeriod is the command-search timer (same binary, same timer
	// on every bot).
	SearchPeriod time.Duration
	// KeysPerDay is the size of the day's rendezvous key set. Storm
	// derives its keys from the current date plus a small index, so the
	// whole botnet cycles the same few keys all day.
	KeysPerDay int
	// KeepalivePeriod is the contact-ping timer.
	KeepalivePeriod time.Duration
	// TimerJitter is the small fractional wobble of the timers.
	TimerJitter float64
	// MsgMedian is the median bytes a bot uploads per control flow.
	MsgMedian float64
	// AvoidSubnets keeps overlay peers out of the given prefixes.
	AvoidSubnets []flow.Subnet
}

// DefaultStormConfig mirrors the paper's trace: 13 bots, one day.
func DefaultStormConfig(day time.Time) StormConfig {
	return StormConfig{
		Bots:            13,
		Day:             day,
		OverlayNodes:    1500,
		SeedPeers:       120,
		SearchPeriod:    10 * time.Minute,
		KeysPerDay:      6,
		KeepalivePeriod: time.Minute,
		TimerJitter:     0.02,
		MsgMedian:       140,
		AvoidSubnets:    synth.InternalSubnets(),
	}
}

// Validate checks the configuration.
func (c *StormConfig) Validate() error {
	if c.Bots <= 0 || c.Bots > 200 {
		return fmt.Errorf("plotter: storm bots must be 1..200, got %d", c.Bots)
	}
	if c.OverlayNodes < c.SeedPeers || c.SeedPeers <= 0 {
		return fmt.Errorf("plotter: need overlay (%d) >= seeds (%d) > 0", c.OverlayNodes, c.SeedPeers)
	}
	if c.SearchPeriod <= 0 || c.KeepalivePeriod <= 0 {
		return fmt.Errorf("plotter: storm timers must be positive")
	}
	if c.KeysPerDay <= 0 {
		return fmt.Errorf("plotter: storm needs at least one rendezvous key per day")
	}
	if c.MsgMedian <= 0 {
		return fmt.Errorf("plotter: message size median must be positive")
	}
	return nil
}

// GenerateStorm synthesizes a 24-hour Storm honeynet trace.
func GenerateStorm(cfg StormConfig, seed int64) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	day := dayStart(cfg.Day)
	sim := simnet.New(day, seed)
	ov, err := newBotnetOverlay(day, cfg.OverlayNodes, sim, cfg.AvoidSubnets)
	if err != nil {
		return nil, err
	}

	bots := make([]flow.IP, cfg.Bots)
	for i := range bots {
		bots[i] = HoneynetSubnet.Addr(uint32(10 + i))
		b := &stormBot{
			cfg:  cfg,
			addr: bots[i],
			sim:  sim,
			ov:   ov,
			rng:  sim.Fork(),
		}
		b.rt = kademlia.NewRoutingTable(kademlia.RandomID(b.rng), kademlia.DefaultK)
		b.start()
	}
	sim.Run(day.Add(24 * time.Hour))
	records := sim.Records()
	flow.SortByStart(records)
	return &Trace{Records: records, Bots: bots}, nil
}

// stormBot is one infected machine.
type stormBot struct {
	cfg   StormConfig
	addr  flow.IP
	sim   *simnet.Simulator
	ov    *kademlia.Overlay
	rng   *rand.Rand
	rt    *kademlia.RoutingTable
	seeds []kademlia.Contact
	ports synth.PortAlloc

	searchCycle int
}

// start boots the bot shortly after midnight (infected machines are
// already running) and arms the two machine timers.
func (b *stormBot) start() {
	bootDelay := simnet.UniformDur(b.rng, 0, 10*time.Minute)
	b.sim.After(bootDelay, func() {
		b.seeds = b.ov.SampleContacts(b.rng, b.cfg.SeedPeers)
		b.emitLookup(kademlia.Bootstrap(b.rt, b.ov, b.seeds, b.sim.Now(), b.rng, b.lookupConfig()))
		b.sim.After(simnet.Jitter(b.rng, b.cfg.SearchPeriod, b.cfg.TimerJitter), b.search)
		b.sim.After(simnet.Jitter(b.rng, b.cfg.KeepalivePeriod, b.cfg.TimerJitter), b.keepalive)
	})
}

func (b *stormBot) lookupConfig() kademlia.LookupConfig {
	cfg := kademlia.DefaultLookupConfig()
	cfg.MaxQueries = 16
	return cfg
}

// reseed tops the routing table back up from the stored peer list when
// churn has emptied it — Storm re-reads its peer file rather than going
// dark.
func (b *stormBot) reseed() {
	if b.rt.Size() >= 10 {
		return
	}
	for _, c := range b.seeds {
		b.rt.Update(c)
	}
}

// search performs the periodic Overnet rendezvous for one of the day's
// command keys. Storm derives its keys from the current date plus a
// small index, so every bot in the botnet cycles the same small key set
// on the same timer — revisiting the same key regions (low churn) and
// sharing timing structure with its peers (the commonality θ_hm
// exploits). Most cycles are FIND_VALUE searches for botmaster commands;
// every few cycles the bot instead *publicizes*, STOREing its own
// contact under the key so other bots can find it.
func (b *stormBot) search() {
	b.reseed()
	day := b.sim.Now().YearDay()
	key := kademlia.KeyID(fmt.Sprintf("storm-cmd-%d-%d", day, b.searchCycle%b.cfg.KeysPerDay))
	b.searchCycle++
	if b.searchCycle%4 == 0 {
		pub := kademlia.IterativePublish(b.rt, b.ov, key, b.addr.String(), b.sim.Now(), b.rng, b.lookupConfig())
		b.emitLookup(append(pub.Lookup, pub.Stores...))
	} else {
		b.emitLookup(kademlia.IterativeFindValue(b.rt, b.ov, key, b.sim.Now(), b.rng, b.lookupConfig()).Attempts)
	}
	b.sim.After(simnet.Jitter(b.rng, b.cfg.SearchPeriod, b.cfg.TimerJitter), b.search)
}

// keepalive pings routing-table contacts — the stored peer list the bot
// keeps returning to, which is what suppresses its churn. Stale entries
// are retried like live ones (the bot cannot tell them apart), feeding
// the high failed-connection rate.
func (b *stormBot) keepalive() {
	b.reseed()
	contacts := b.rt.Closest(b.rt.Self(), 12)
	for i, c := range contacts {
		c := c
		b.sim.After(time.Duration(i)*200*time.Millisecond, func() {
			ok := b.ov.Online(c.ID, b.sim.Now()) && !simnet.Bernoulli(b.rng, 0.05)
			synth.EmitFlow(b.sim, b.controlFlow(c, ok))
			if !ok && simnet.Bernoulli(b.rng, 0.3) {
				// Evict unresponsive contacts only after a few tries.
				b.rt.Remove(c.ID)
			}
			// Peers that know the bot query it back: the bot sits in
			// *their* routing tables too, so the border also sees
			// inbound Overnet traffic (P2P hosts serve as well as ask).
			if ok && simnet.Bernoulli(b.rng, 0.25) {
				b.sim.After(simnet.UniformDur(b.rng, time.Second, 30*time.Second), func() {
					// The same exchange, reversed, with the peer's opcode.
					in := b.controlFlow(c, true)
					in.Src, in.Dst, in.SrcPort, in.DstPort = in.Dst, in.Src, in.DstPort, in.SrcPort
					in.Payload[3] = 0x01
					synth.EmitFlow(b.sim, in)
				})
			}
		})
	}
	b.sim.After(simnet.Jitter(b.rng, b.cfg.KeepalivePeriod, b.cfg.TimerJitter), b.keepalive)
}

// emitLookup spaces a lookup's queries out the way the UDP client does.
func (b *stormBot) emitLookup(attempts []kademlia.Attempt) {
	synth.EmitLookup(b.sim, b.rng, attempts, 50*time.Millisecond, 400*time.Millisecond, nil, func(a kademlia.Attempt) synth.FlowSpec {
		return b.controlFlow(a.Peer, a.Responded)
	})
}

// controlFlow builds one tiny Overnet control exchange from the bot to
// peer.
func (b *stormBot) controlFlow(peer kademlia.Contact, ok bool) synth.FlowSpec {
	return synth.FlowSpec{
		Src: b.addr, Dst: peer.Addr,
		SrcPort: stormPort, DstPort: peer.Port, Proto: flow.UDP,
		Duration: simnet.UniformDur(b.rng, 50*time.Millisecond, 600*time.Millisecond),
		ReqBytes: uint64(simnet.LogNormalMedian(b.rng, b.cfg.MsgMedian, 0.35)),
		RspBytes: uint64(simnet.LogNormalMedian(b.rng, b.cfg.MsgMedian*1.6, 0.4)),
		Success:  ok,
		// Overnet control messages are binary; Storm's carry no
		// file-sharing signature (0xe3 followed by an opcode outside the
		// eDonkey set, so ground-truth labeling does not match them).
		Payload: []byte{0xe3, 0x0b, 0x00, 0x00},
	}
}
