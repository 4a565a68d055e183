package trader

import (
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
	"plotters/internal/synth"
)

// eMule conventional ports: TCP peer/server traffic and UDP KAD.
const (
	emuleTCPPort = 4662
	emuleSrvPort = 4661
	emuleKADPort = 4672
)

// eMule wire prefixes (Kulbak & Bickson): 0xe3 heads eDonkey messages.
// TCP frames carry a 4-byte length before the opcode; UDP KAD packets put
// the opcode immediately after the header byte.
func emuleTCPHello() []byte {
	return []byte{0xe3, 0x55, 0x00, 0x00, 0x00, 0x01, 0x10}
}

func emuleKADReq() []byte {
	return []byte{0xe3, 0x21, 0x02, 0x04}
}

// emuleConnect opens the session: log into an index server, bootstrap
// KAD, then run the download/upload queue.
func (t *Trader) emuleConnect() {
	server := t.cfg.Trackers.Pick()
	synth.EmitFlow(t.sim, synth.FlowSpec{
		Src: t.cfg.Host, Dst: server,
		SrcPort: t.ports.Next(), DstPort: emuleSrvPort, Proto: flow.TCP,
		Duration: simnet.UniformDur(t.rng, time.Second, 10*time.Second),
		ReqBytes: 700, RspBytes: 4000,
		Success: !simnet.Bernoulli(t.rng, t.cfg.FailBias),
		Payload: emuleTCPHello(),
	})
	// KAD bootstrap: a burst of UDP lookups seeding the routing table.
	seeds := t.cfg.Network.SampleContacts(t.rng, 10)
	for _, s := range seeds {
		t.rt.Update(s)
	}
	t.sim.After(simnet.UniformDur(t.rng, time.Second, 5*time.Second), t.emuleKADLookup)
	t.sim.After(simnet.UniformDur(t.rng, 5*time.Second, 30*time.Second), t.emuleTransferLoop)
}

// emuleKADLookup runs one KAD keyword/source search: UDP queries to
// DHT peers, mostly new addresses, with churn-driven failures.
func (t *Trader) emuleKADLookup() {
	if !t.inSession() {
		return
	}
	target := kademlia.RandomID(t.rng)
	attempts := kademlia.IterativeFindNode(t.rt, t.cfg.Network, target, t.sim.Now(), t.rng, kademlia.DefaultLookupConfig())
	// The client spaces the lookup's UDP queries a few hundred
	// milliseconds apart.
	synth.EmitLookup(t.sim, t.rng, attempts, 100*time.Millisecond, 700*time.Millisecond, t.inSession, func(a kademlia.Attempt) synth.FlowSpec {
		return synth.FlowSpec{
			Src: t.cfg.Host, Dst: a.Peer.Addr,
			SrcPort: emuleKADPort, DstPort: a.Peer.Port, Proto: flow.UDP,
			Duration: 300 * time.Millisecond,
			ReqBytes: uint64(simnet.LogNormalMedian(t.rng, 70, 0.3)),
			RspBytes: uint64(simnet.LogNormalMedian(t.rng, 350, 0.5)),
			Success:  a.Responded,
			Payload:  emuleKADReq(),
		}
	})
	// Sources refresh every few minutes while downloads are queued.
	t.sim.After(t.paced(simnet.UniformDur(t.rng, 2*time.Minute, 6*time.Minute)), t.emuleKADLookup)
}

// emuleTransferLoop exchanges file parts with source peers: downloads
// from queued sources and uploads from the shared folder (eMule's credit
// system makes Traders upload heavily).
func (t *Trader) emuleTransferLoop() {
	if !t.inSession() {
		return
	}
	sources := t.cfg.Network.SampleContacts(t.rng, 1+t.rng.Intn(4))
	for _, peer := range sources {
		peer := peer
		t.sim.After(simnet.UniformDur(t.rng, 0, 20*time.Second), func() {
			if !t.inSession() {
				return
			}
			ok := t.peerOnline(peer)
			upload := simnet.Bernoulli(t.rng, 0.45)
			req := simnet.LogNormalMedian(t.rng, 900, 0.5)
			rsp := simnet.LogNormalMedian(t.rng, float64(t.cfg.UploadMedian)*3, t.cfg.UploadSigma)
			if upload {
				req = simnet.LogNormalMedian(t.rng, t.cfg.UploadMedian, t.cfg.UploadSigma)
				rsp = simnet.LogNormalMedian(t.rng, 1200, 0.5)
			}
			synth.EmitFlow(t.sim, synth.FlowSpec{
				Src: t.cfg.Host, Dst: peer.Addr,
				SrcPort: t.ports.Next(), DstPort: emuleTCPPort, Proto: flow.TCP,
				Duration: simnet.UniformDur(t.rng, 10*time.Second, 6*time.Minute),
				ReqBytes: uint64(req), RspBytes: uint64(rsp),
				Success: ok,
				Payload: emuleTCPHello(),
			})
		})
	}
	// Credit-system peers dial in for their queued parts.
	if simnet.Bernoulli(t.rng, 0.5) {
		t.sim.After(simnet.UniformDur(t.rng, time.Second, 45*time.Second), func() {
			if t.inSession() {
				t.emitInbound(emuleTCPPort, emuleTCPHello(), 900, t.cfg.UploadMedian)
			}
		})
	}
	t.sim.After(t.humanGap(15), t.emuleTransferLoop)
}
