// Package dist runs the detection pipeline across processes: N
// ShardWorkers each own one host-hash slice of the monitored population
// (feature extraction plus the shard-local phase, core.LocalPass) and
// ship per-window ShardSummary frames over TCP to one Coordinator, the
// one owner of window assembly: once every shard has reported a window
// (or its timeout force-seals it) the Coordinator merges the summaries
// and runs the detectors over the merge with engine.RunWindow, the
// single-process engine's own detection step.
//
// The wire format is the checkpoint package's codec, reused on purpose:
// the same little-endian primitives (internal/wire), the same CRC-framed
// sections, the same refuse-to-guess posture — an unknown version, a
// failed CRC, a truncated frame, or a mismatched configuration
// fingerprint is a descriptive hard error, never a silently wrong
// percentile. The transport discipline is the collector's: frames carry
// per-shard sequence numbers; the coordinator counts gaps, duplicates,
// and resets exactly as the NetFlow sequence accounting does, and a
// worker that reconnects resends everything unacknowledged (duplicates
// are deduplicated downstream by (shard, window), so a mid-run kill and
// reconnect leaves the detection output bit-identical).
package dist

import (
	"fmt"
	"math"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/histogram"
	"plotters/internal/wire"
)

// WireVersion is the shard→coordinator protocol version, bumped on any
// frame-layout change. Both ends refuse a peer speaking another
// version. Version 2 drops from the hello's fingerprint version 1's
// flag for keeping θ_churn's grace period across windows; version 3
// drops the coordinator's operating point (the three percentiles, the
// cut fraction and the diameter statistic) and the histogram bin cap;
// version 4 drops the hello's resume sequence number, which no end read,
// and adds the coordinator's refusal frame.
const WireVersion = 4

// SummaryVersion versions the ShardSummary payload layout inside
// summary frames, independently of the outer protocol. Version 2 drops
// version 1's successful-flow count (flows less failed flows) and
// last-seen time.
const SummaryVersion = 2

// Frame types.
const (
	frameHello     = 1 // worker → coordinator, first frame on every connection
	frameSummary   = 2 // worker → coordinator, one window's ShardSummary
	frameWatermark = 3 // worker → coordinator, stream punctuation
	frameAck       = 4 // coordinator → worker, cumulative sequence ack
	frameRefuse    = 5 // coordinator → worker, why the hello was refused; the connection closes after it
)

// maxFramePayload bounds a frame before allocation. A summary's
// dominant cost is its sketches: ≤ histogram.MaxBins (256) non-empty
// bins × 16 bytes ≈ 4 KiB per clusterable host, so 256 MiB covers tens
// of thousands of hosts per shard-window with room to spare.
const maxFramePayload = 256 << 20

// maxHelloPayload bounds the first frame of a connection, read before
// the peer has proven anything: a hello is 56 bytes, and
// wire.ReadFrame allocates the declared length before reading it, so
// the summary-sized limit here would let six bytes from anyone who can
// reach the listener pin maxFramePayload of memory per connection.
const maxHelloPayload = 4 << 10

// refuseTimeout bounds the coordinator's write of a refusal frame: a
// peer that does not read must not hold the connection open.
const refuseTimeout = time.Second

// minHostSummary is the smallest encoded HostSummary (empty sketch and
// contact list), used to validate host counts before allocation.
const minHostSummary = 4 + 2*8 + 8 + 2*8 + 9 + 8 + 4 + 4

// Fingerprint pins the configuration a shard computes with, the knobs
// the distributed split's bit-identity depends on at both ends: the
// window geometry the shards seal by (window, slide, skew, grace and
// shard count, then the origin) and the two θ_hm knobs core.LocalPass
// reads, the sample floor and the time axis its sketches are built on.
// A worker and coordinator that differ in one would not fail on their
// own — windows or sketches would just come out quietly different — so
// the hello handshake compares every field and refuses the connection
// on the first mismatch. The percentiles, the cut fraction and the
// diameter statistic are the coordinator's alone (a shard never reads
// them), and knobs that provably cannot change the output (Parallelism,
// DropLate, metrics) are excluded too.
type Fingerprint struct {
	// Geometry.Shards is the deployment's worker-process count.
	engine.Geometry
	// Origin is the resolved grid origin (engine.Config.GridOrigin), so
	// a zero Config.Origin and an explicit epoch one match.
	Origin time.Time

	MinInterstitialSamples int
	RawTimeScale           bool
}

// FingerprintOf derives the fingerprint of one shard engine
// configuration in an N-shard deployment.
func FingerprintOf(cfg engine.Config, shards int) Fingerprint {
	return Fingerprint{
		Geometry:               cfg.Geometry(shards),
		Origin:                 cfg.GridOrigin(),
		MinInterstitialSamples: cfg.Core.MinInterstitialSamples,
		RawTimeScale:           cfg.Core.RawTimeScale,
	}
}

// Check compares a worker's fingerprint against the coordinator's,
// naming the first mismatched knob: the shared geometry first, then the
// origin and the θ_hm knobs.
func (f Fingerprint) Check(cur Fingerprint) error {
	knob, peer, mine := f.Geometry.Mismatch(cur.Geometry)
	for _, m := range []struct {
		name string
		a, b any
	}{
		{"origin", f.Origin.UnixNano(), cur.Origin.UnixNano()},
		{"min interstitial samples", f.MinInterstitialSamples, cur.MinInterstitialSamples},
		{"raw-time-scale", f.RawTimeScale, cur.RawTimeScale},
	} {
		if knob != "" {
			break
		}
		if m.a != m.b {
			knob, peer, mine = m.name, m.a, m.b
		}
	}
	if knob != "" {
		return fmt.Errorf("dist: configuration fingerprint mismatch: peer runs with %s %v but this end is configured with %v — every node of a distributed deployment must seal the same windows and build the same θ_hm sketches",
			knob, peer, mine)
	}
	return nil
}

func (f Fingerprint) encode(e *wire.Encoder) {
	e.Dur(f.Window)
	e.Dur(f.Slide)
	e.Time(f.Origin)
	e.Dur(f.MaxSkew)
	e.Dur(f.Grace)
	e.U32(uint32(f.Shards))
	e.U32(uint32(f.MinInterstitialSamples))
	e.Bool(f.RawTimeScale)
}

func decodeFingerprint(d *wire.Decoder) Fingerprint {
	var f Fingerprint
	f.Window = d.Dur()
	f.Slide = d.Dur()
	f.Origin = d.Time()
	f.MaxSkew = d.Dur()
	f.Grace = d.Dur()
	f.Shards = int(d.U32())
	f.MinInterstitialSamples = int(d.U32())
	f.RawTimeScale = d.Bool()
	return f
}

// hello is the first frame of every worker connection.
type hello struct {
	Version uint16
	Shard   int
	FP      Fingerprint
}

func encodeHello(h hello) []byte {
	var e wire.Encoder
	e.U16(h.Version)
	e.U32(uint32(h.Shard))
	h.FP.encode(&e)
	return e.Bytes()
}

func decodeHello(data []byte) (hello, error) {
	d := wire.NewDecoder(data)
	h := hello{
		Version: d.U16(),
		Shard:   int(d.U32()),
	}
	// The version gates everything after it: a future hello may carry a
	// longer fingerprint, so mismatches must be reported before the
	// decoder trips over layout differences.
	if d.Err() == nil && h.Version != WireVersion {
		return h, fmt.Errorf("dist: peer speaks protocol version %d but this build speaks %d — refusing to guess at its frames", h.Version, WireVersion)
	}
	h.FP = decodeFingerprint(d)
	if err := d.Err(); err != nil {
		return h, fmt.Errorf("dist: malformed hello: %w", err)
	}
	if d.Remaining() != 0 {
		return h, fmt.Errorf("dist: hello carries %d undecoded trailing bytes", d.Remaining())
	}
	return h, nil
}

// EncodeSummary serializes one window's ShardSummary (versioned; the
// payload of a summary frame after its sequence header).
func EncodeSummary(index int, s *core.ShardSummary) []byte {
	var e wire.Encoder
	e.U16(SummaryVersion)
	e.I64(int64(index))
	e.U32(uint32(s.Shard))
	e.U32(uint32(s.Shards))
	e.Time(s.Window.From)
	e.Time(s.Window.To)
	e.Bool(s.Partial)
	e.Bool(s.HasContacts)
	e.U32(uint32(len(s.Hosts)))
	for i := range s.Hosts {
		h := &s.Hosts[i]
		e.U32(uint32(h.Host))
		e.I64(int64(h.Flows))
		e.I64(int64(h.FailedFlows))
		e.U64(h.BytesUploaded)
		e.I64(int64(h.Peers))
		e.I64(int64(h.NewPeers))
		e.Time(h.FirstSeen)
		e.I64(int64(h.InterstitialCount))
		e.U32(uint32(len(h.SketchPositions)))
		for j := range h.SketchPositions {
			e.F64(h.SketchPositions[j])
			e.F64(h.SketchWeights[j])
		}
		e.U32(uint32(len(h.Contacts)))
		for _, c := range h.Contacts {
			e.U32(uint32(c))
		}
	}
	return e.Bytes()
}

// DecodeSummary parses a summary payload produced by EncodeSummary,
// returning the window index it is for. Unknown versions, truncations,
// and implausible counts are descriptive hard errors.
func DecodeSummary(data []byte) (int, *core.ShardSummary, error) {
	d := wire.NewDecoder(data)
	version := d.U16()
	if d.Err() != nil {
		return 0, nil, fmt.Errorf("dist: summary truncated before its version field")
	}
	if version != SummaryVersion {
		return 0, nil, fmt.Errorf("dist: summary format version %d is not supported by this build (understands up to %d) — refusing to guess at its layout",
			version, SummaryVersion)
	}
	index := int(d.I64())
	s := &core.ShardSummary{
		Shard:  int(d.U32()),
		Shards: int(d.U32()),
	}
	s.Window.From = d.Time()
	s.Window.To = d.Time()
	s.Partial = d.Bool()
	s.HasContacts = d.Bool()
	n := d.Count(minHostSummary)
	if d.Err() == nil && n > 0 {
		s.Hosts = make([]core.HostSummary, n)
	}
	// Every host's sketch and contacts are carved from one exact-size
	// array of each kind, sized by a first walk over the hosts' counts;
	// a full slice expression keeps an append to one host's slice off
	// its neighbour's.
	bins, contacts := summaryCounts(*d, n)
	var positions, weights []float64
	var ips []flow.IP
	if bins > 0 {
		positions, weights = make([]float64, bins), make([]float64, bins)
	}
	if contacts > 0 {
		ips = make([]flow.IP, contacts)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		h := &s.Hosts[i]
		h.Host = flow.IP(d.U32())
		h.Flows = int(d.I64())
		h.FailedFlows = int(d.I64())
		if h.FailedFlows < 0 || h.FailedFlows > h.Flows {
			d.Fail("host %v claims %d failed of %d flows", h.Host, h.FailedFlows, h.Flows)
		}
		h.BytesUploaded = d.U64()
		h.Peers = int(d.I64())
		h.NewPeers = int(d.I64())
		h.FirstSeen = d.Time()
		h.InterstitialCount = int(d.I64())
		// LocalPass sends a histogram's non-empty bins, so a longer
		// sketch is no correct shard's.
		if bins := d.Count(16); bins > histogram.MaxBins {
			d.Fail("host %v sketch has %d bins, more than the %d a histogram holds", h.Host, bins, histogram.MaxBins)
		} else if bins > len(positions) {
			d.Fail("host %v sketch has %d bins, more than the frame's first walk counted", h.Host, bins)
		} else if bins > 0 {
			h.SketchPositions, positions = positions[:bins:bins], positions[bins:]
			h.SketchWeights, weights = weights[:bins:bins], weights[bins:]
			for j := 0; j < bins; j++ {
				pos, w := d.F64(), d.F64()
				h.SketchPositions[j], h.SketchWeights[j] = pos, w
				// A sketch is the non-empty bins of a histogram, as
				// LocalPass sends it: finite centers, ascending, each with
				// positive finite mass. Anything else would fail θ_hm's
				// signature check at the coordinator, after the window's
				// other frames were taken.
				if math.IsNaN(pos) || math.IsInf(pos, 0) || j > 0 && pos <= h.SketchPositions[j-1] {
					d.Fail("host %v sketch position %d (%v) is not finite and ascending", h.Host, j, pos)
				}
				if !(w > 0) || math.IsInf(w, 0) {
					d.Fail("host %v sketch weight %d (%v) is not finite and positive", h.Host, j, w)
				}
			}
		}
		if nc := d.Count(4); nc > len(ips) {
			d.Fail("host %v has %d contacts, more than the frame's first walk counted", h.Host, nc)
		} else if nc > 0 {
			h.Contacts, ips = ips[:nc:nc], ips[nc:]
			for j := range h.Contacts {
				h.Contacts[j] = flow.IP(d.U32())
				// Contacts is a strictly ascending set, as LocalPass sends
				// it; a repeat or an out-of-order entry is a buggy or
				// hostile shard.
				if j > 0 && h.Contacts[j] <= h.Contacts[j-1] {
					d.Fail("host %v contact %d (%v) does not ascend from %v", h.Host, j, h.Contacts[j], h.Contacts[j-1])
				}
			}
		}
	}
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("dist: malformed summary frame: %w", err)
	}
	if d.Remaining() != 0 {
		return 0, nil, fmt.Errorf("dist: summary frame carries %d undecoded trailing bytes", d.Remaining())
	}
	return index, s, nil
}

// summaryCounts walks n encoded hosts from d, a copy of the decoder at
// the host list, and totals their sketch bins and contacts. It checks
// only that each count fits the bytes left, as Count does; where the
// walk fails, DecodeSummary's own pass fails no later.
func summaryCounts(d wire.Decoder, n int) (bins, contacts int) {
	const fixed = minHostSummary - 8 // a host's fields up to its sketch count
	for i := 0; i < n && d.Err() == nil; i++ {
		d.Take(fixed)
		b := d.Count(16)
		d.Take(16 * b)
		c := d.Count(4)
		d.Take(4 * c)
		bins, contacts = bins+b, contacts+c
	}
	return bins, contacts
}

// seqPayload prefixes a frame body with its per-shard sequence number.
func seqPayload(seq uint64, body []byte) []byte {
	var e wire.Encoder
	e.U64(seq)
	e.Raw(body)
	return e.Bytes()
}

func encodeWatermark(t time.Time) []byte {
	var e wire.Encoder
	e.Time(t)
	return e.Bytes()
}

func decodeWatermark(data []byte) (time.Time, error) {
	d := wire.NewDecoder(data)
	t := d.Time()
	if err := d.Err(); err != nil {
		return time.Time{}, fmt.Errorf("dist: malformed watermark frame: %w", err)
	}
	if d.Remaining() != 0 {
		return time.Time{}, fmt.Errorf("dist: watermark frame carries %d undecoded trailing bytes", d.Remaining())
	}
	return t, nil
}
