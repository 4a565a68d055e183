package trader

import (
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
	"plotters/internal/synth"
)

// BitTorrent conventional ports.
const (
	btPeerPort = 6881
	btDHTPort  = 6881
)

var (
	btHandshake = append([]byte{19}, []byte("BitTorrent protocol")...)
	btDHTQuery  = []byte("d1:ad2:id20:aaaabbbbccccddddeeee")
	btAnnounce  = []byte("GET /announce?info_hash=%a1%b2 HTTP/1.1\r\n")
	btScrape    = []byte("GET /scrape?info_hash=%a1%b2 HTTP/1.1\r\n")
)

// bittorrentJoin starts a torrent: announce to the tracker, query the
// DHT, then trade pieces with the swarm until the session ends.
func (t *Trader) bittorrentJoin() {
	t.swarm = t.swarm[:0]
	tracker := t.cfg.Trackers.Pick()
	// Initial scrape + announce.
	synth.EmitFlow(t.sim, synth.FlowSpec{
		Src: t.cfg.Host, Dst: tracker,
		SrcPort: t.ports.Next(), DstPort: 80, Proto: flow.TCP,
		Duration: simnet.UniformDur(t.rng, 200*time.Millisecond, 2*time.Second),
		ReqBytes: 320, RspBytes: 600,
		Success: !simnet.Bernoulli(t.rng, t.cfg.FailBias),
		Payload: btScrape,
	})
	t.sim.After(simnet.UniformDur(t.rng, 100*time.Millisecond, time.Second), func() {
		t.btAnnounce(tracker)
	})
	// DHT bootstrap.
	for _, s := range t.cfg.Network.SampleContacts(t.rng, 8) {
		t.rt.Update(s)
	}
	t.sim.After(simnet.UniformDur(t.rng, time.Second, 5*time.Second), t.btDHTLookup)
	t.sim.After(simnet.UniformDur(t.rng, 3*time.Second, 15*time.Second), t.btSwarmLoop)
}

// btAnnounce hits the tracker and refreshes the swarm peer set; trackers
// re-announce on a ~30-minute cadence, which also gives Traders their
// per-destination interstitial samples.
func (t *Trader) btAnnounce(tracker flow.IP) {
	if !t.inSession() {
		return
	}
	synth.EmitFlow(t.sim, synth.FlowSpec{
		Src: t.cfg.Host, Dst: tracker,
		SrcPort: t.ports.Next(), DstPort: 80, Proto: flow.TCP,
		Duration: simnet.UniformDur(t.rng, 200*time.Millisecond, 2*time.Second),
		ReqBytes: 350, RspBytes: uint64(simnet.LogNormalMedian(t.rng, 1500, 0.4)),
		Success: !simnet.Bernoulli(t.rng, t.cfg.FailBias),
		Payload: btAnnounce,
	})
	// The tracker response refreshes the candidate swarm. Announce
	// intervals are tracker-assigned and vary client to client, so
	// Traders do not share a common timer the way bots of one botnet do.
	t.swarm = t.cfg.Network.SampleContacts(t.rng, 8+t.rng.Intn(12))
	if t.announcePeriod == 0 {
		t.announcePeriod = simnet.UniformDur(t.rng, 15*time.Minute, 45*time.Minute)
	}
	t.sim.After(simnet.Jitter(t.rng, t.announcePeriod, 0.25), func() { t.btAnnounce(tracker) })
}

// btDHTLookup runs a Mainline-DHT get_peers walk.
func (t *Trader) btDHTLookup() {
	if !t.inSession() {
		return
	}
	attempts := kademlia.IterativeFindNode(t.rt, t.cfg.Network, kademlia.RandomID(t.rng), t.sim.Now(), t.rng, kademlia.DefaultLookupConfig())
	synth.EmitLookup(t.sim, t.rng, attempts, 50*time.Millisecond, 500*time.Millisecond, t.inSession, func(a kademlia.Attempt) synth.FlowSpec {
		return synth.FlowSpec{
			Src: t.cfg.Host, Dst: a.Peer.Addr,
			SrcPort: btDHTPort, DstPort: a.Peer.Port, Proto: flow.UDP,
			Duration: 250 * time.Millisecond,
			ReqBytes: uint64(simnet.LogNormalMedian(t.rng, 110, 0.2)),
			RspBytes: uint64(simnet.LogNormalMedian(t.rng, 400, 0.4)),
			Success:  a.Responded,
			Payload:  btDHTQuery,
		}
	})
	t.sim.After(t.paced(simnet.UniformDur(t.rng, 3*time.Minute, 10*time.Minute)), t.btDHTLookup)
}

// btSwarmLoop trades pieces: connect to swarm peers (many are gone —
// churn), download pieces, and upload to leechers via tit-for-tat.
func (t *Trader) btSwarmLoop() {
	if !t.inSession() {
		return
	}
	if len(t.swarm) == 0 {
		t.swarm = t.cfg.Network.SampleContacts(t.rng, 10)
	}
	n := 1 + t.rng.Intn(4)
	for i := 0; i < n && len(t.swarm) > 0; i++ {
		peer := t.swarm[t.rng.Intn(len(t.swarm))]
		t.sim.After(simnet.UniformDur(t.rng, 0, 15*time.Second), func() {
			if !t.inSession() {
				return
			}
			ok := t.peerOnline(peer)
			seedSide := simnet.Bernoulli(t.rng, 0.5)
			req := simnet.LogNormalMedian(t.rng, 2500, 0.8) // requests + have/bitfield chatter
			rsp := simnet.LogNormalMedian(t.rng, float64(t.cfg.UploadMedian)*4, t.cfg.UploadSigma)
			if seedSide {
				req = simnet.LogNormalMedian(t.rng, t.cfg.UploadMedian, t.cfg.UploadSigma)
				rsp = simnet.LogNormalMedian(t.rng, 2000, 0.6)
			}
			synth.EmitFlow(t.sim, synth.FlowSpec{
				Src: t.cfg.Host, Dst: peer.Addr,
				SrcPort: t.ports.Next(), DstPort: btPeerPort, Proto: flow.TCP,
				Duration: simnet.UniformDur(t.rng, 20*time.Second, 8*time.Minute),
				ReqBytes: uint64(req), RspBytes: uint64(rsp),
				Success: ok,
				Payload: btHandshake,
			})
		})
	}
	// Swarm peers also connect in to fetch our pieces.
	if simnet.Bernoulli(t.rng, 0.5) {
		t.sim.After(simnet.UniformDur(t.rng, time.Second, 30*time.Second), func() {
			if t.inSession() {
				t.emitInbound(btPeerPort, btHandshake, 2500, t.cfg.UploadMedian)
			}
		})
	}
	t.sim.After(t.humanGap(10), t.btSwarmLoop)
}
