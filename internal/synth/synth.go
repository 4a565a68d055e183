// Package synth holds the shared building blocks of the traffic
// generators: the campus address plan, ephemeral port allocation, flow
// assembly helpers, and the common generator configuration. The actual
// behavioral models live in the subpackages campus (background hosts),
// trader (Gnutella/eMule/BitTorrent file-sharers), and plotter
// (Storm/Nugache bots); the scenario subpackage assembles whole datasets.
package synth

import (
	"math/rand"
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
)

// The monitored enterprise: two /16 subnets, mirroring the CMU campus
// network the paper's dataset was collected from.
var (
	CampusNetA = flow.MustParseSubnet("128.2.0.0/16")
	CampusNetB = flow.MustParseSubnet("128.237.0.0/16")
)

// InternalSubnets returns the monitored prefixes.
func InternalSubnets() []flow.Subnet {
	return []flow.Subnet{CampusNetA, CampusNetB}
}

// IsInternal reports whether ip belongs to the monitored network.
func IsInternal(ip flow.IP) bool {
	return CampusNetA.Contains(ip) || CampusNetB.Contains(ip)
}

// CollectionStart returns 9 a.m. local (simulated) time on the given
// day — the start of the paper's daily collection window.
func CollectionStart(day time.Time) time.Time {
	return time.Date(day.Year(), day.Month(), day.Day(), 9, 0, 0, 0, time.UTC)
}

// CollectionWindow returns the paper's daily observation window,
// 9 a.m.–3 p.m.
func CollectionWindow(day time.Time) flow.Window {
	start := CollectionStart(day)
	return flow.Window{From: start, To: start.Add(6 * time.Hour)}
}

// AddrPlan hands out internal host addresses across the two campus
// subnets, alternating between them.
type AddrPlan struct {
	next uint32
}

// NextInternal returns a fresh internal address.
func (p *AddrPlan) NextInternal() flow.IP {
	p.next++
	// Skip .0.0 and low addresses reserved for routers in each subnet.
	idx := p.next + 256
	if p.next%2 == 0 {
		return CampusNetA.Addr(idx)
	}
	return CampusNetB.Addr(idx)
}

// PortAlloc hands out ephemeral source ports in the dynamic range,
// wrapping around like a real OS allocator.
type PortAlloc struct {
	next uint16
}

// Next returns the next ephemeral port.
func (p *PortAlloc) Next() uint16 {
	const lo, hi = 49152, 65535
	if p.next < lo || p.next >= hi {
		p.next = lo
	}
	port := p.next
	p.next++
	return port
}

// FlowSpec describes one flow for EmitFlow.
type FlowSpec struct {
	Src      flow.IP
	Dst      flow.IP
	SrcPort  uint16
	DstPort  uint16
	Proto    flow.Proto
	Duration time.Duration
	ReqBytes uint64 // bytes uploaded by the initiator
	RspBytes uint64 // bytes returned by the responder
	Success  bool
	Payload  []byte
}

// Per-packet wire overhead: Argus byte counters measure bytes on the
// wire, including IP and transport headers — which is why even failed
// connection attempts contribute non-zero bytes.
const (
	tcpHeaderBytes = 40 // IP (20) + TCP (20)
	udpHeaderBytes = 28 // IP (20) + UDP (8)
	synPacketBytes = 60 // SYN with options
)

// EmitFlow assembles a flow record starting at the simulator's current
// time and emits it. ReqBytes/RspBytes are application payload volumes;
// the emitted record carries wire bytes (payload plus per-packet header
// overhead), matching what a flow monitor actually counts. Failed flows
// carry only the initiator's futile packets.
func EmitFlow(sim *simnet.Simulator, spec FlowSpec) {
	start := sim.Now()
	state := flow.StateEstablished
	srcPkts := pktsFor(spec.ReqBytes, spec.Proto)
	dstPkts := pktsFor(spec.RspBytes, spec.Proto)
	srcBytes := wireBytes(spec.ReqBytes, srcPkts, spec.Proto)
	dstBytes := wireBytes(spec.RspBytes, dstPkts, spec.Proto)
	if !spec.Success {
		state = flow.StateFailed
		// Unanswered attempt: a few retransmitted packets, no response.
		if spec.Proto == flow.TCP {
			srcPkts = 3 // SYN retries
			srcBytes = 3 * synPacketBytes
		} else {
			srcPkts = 1
			if spec.ReqBytes > 128 {
				spec.ReqBytes = 128
			}
			srcBytes = spec.ReqBytes + udpHeaderBytes
		}
		dstPkts = 0
		dstBytes = 0
		spec.Payload = nil
		if spec.Duration > 10*time.Second || spec.Duration <= 0 {
			spec.Duration = 3 * time.Second // timeout
		}
	}
	if spec.Duration <= 0 {
		spec.Duration = 50 * time.Millisecond
	}
	payload := spec.Payload
	if len(payload) > flow.MaxPayload {
		payload = payload[:flow.MaxPayload]
	}
	sim.Emit(flow.Record{
		Src:      spec.Src,
		Dst:      spec.Dst,
		SrcPort:  spec.SrcPort,
		DstPort:  spec.DstPort,
		Proto:    spec.Proto,
		Start:    start,
		End:      start.Add(spec.Duration),
		SrcPkts:  srcPkts,
		DstPkts:  dstPkts,
		SrcBytes: srcBytes,
		DstBytes: dstBytes,
		State:    state,
		Payload:  payload,
	})
}

// EmitLookup replays a DHT lookup as traffic: it emits flowOf(attempt) for
// each attempt in query order, waiting a UniformDur(minGap, maxGap) gap
// (drawn after the flow's own draws) between them, the way a UDP client
// spaces its queries. It stops once active (nil means always) reports
// false, checked before each attempt.
func EmitLookup(sim *simnet.Simulator, rng *rand.Rand, attempts []kademlia.Attempt, minGap, maxGap time.Duration, active func() bool, flowOf func(kademlia.Attempt) FlowSpec) {
	if len(attempts) == 0 || (active != nil && !active()) {
		return
	}
	EmitFlow(sim, flowOf(attempts[0]))
	sim.After(simnet.UniformDur(rng, minGap, maxGap), func() {
		EmitLookup(sim, rng, attempts[1:], minGap, maxGap, active, flowOf)
	})
}

// pktsFor estimates a packet count for a payload volume.
func pktsFor(bytes uint64, proto flow.Proto) uint32 {
	const mss = 700
	pkts := bytes / mss
	if bytes%mss != 0 || bytes == 0 {
		pkts++
	}
	if proto == flow.TCP {
		pkts += 3 // handshake + teardown overhead
	}
	if pkts > 1<<31 {
		pkts = 1 << 31
	}
	return uint32(pkts)
}

// wireBytes converts payload bytes to on-the-wire bytes.
func wireBytes(payload uint64, pkts uint32, proto flow.Proto) uint64 {
	hdr := uint64(udpHeaderBytes)
	if proto == flow.TCP {
		hdr = tcpHeaderBytes
	}
	return payload + uint64(pkts)*hdr
}

// ExternalIPPool is a fixed population of external service addresses
// (web servers, mail hosts, trackers) with Zipfian popularity.
type ExternalIPPool struct {
	addrs []flow.IP
	zipf  *rand.Zipf
}

// NewExternalIPPool draws n distinct public addresses outside the campus
// subnets, with popularity skew s (>1; larger = more skewed).
func NewExternalIPPool(rng *rand.Rand, n int, s float64) *ExternalIPPool {
	seen := make(map[flow.IP]bool, n)
	addrs := make([]flow.IP, 0, n)
	for len(addrs) < n {
		ip := flow.IP(rng.Uint32())
		first, _, _, _ := ip.Octets()
		if first == 0 || first == 10 || first == 127 || first >= 224 || IsInternal(ip) || seen[ip] {
			continue
		}
		seen[ip] = true
		addrs = append(addrs, ip)
	}
	return &ExternalIPPool{
		addrs: addrs,
		zipf:  rand.NewZipf(rng, s, 1, uint64(n-1)),
	}
}

// Pick draws an address by popularity.
func (p *ExternalIPPool) Pick() flow.IP {
	return p.addrs[p.zipf.Uint64()]
}

// PickUniform draws an address uniformly.
func (p *ExternalIPPool) PickUniform(rng *rand.Rand) flow.IP {
	return p.addrs[rng.Intn(len(p.addrs))]
}

// Size returns the pool size.
func (p *ExternalIPPool) Size() int { return len(p.addrs) }
