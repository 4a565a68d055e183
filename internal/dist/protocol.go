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
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/wire"
)

// WireVersion is the shard→coordinator protocol version, bumped on any
// frame-layout change. Both ends refuse a peer speaking another
// version.
const WireVersion = 1

// SummaryVersion versions the ShardSummary payload layout inside
// summary frames, independently of the outer protocol.
const SummaryVersion = 1

// Frame types.
const (
	frameHello     = 1 // worker → coordinator, first frame on every connection
	frameSummary   = 2 // worker → coordinator, one window's ShardSummary
	frameWatermark = 3 // worker → coordinator, stream punctuation
	frameAck       = 4 // coordinator → worker, cumulative sequence ack
)

// maxFramePayload bounds a frame before allocation. A summary's
// dominant cost is its sketches: ≤ MaxHistogramBins (256) non-empty
// bins × 16 bytes ≈ 4 KiB per clusterable host, so 256 MiB covers tens
// of thousands of hosts per shard-window with room to spare.
const maxFramePayload = 256 << 20

// maxHelloPayload bounds the first frame of a connection, read before
// the peer has proven anything: a hello is about 110 bytes, and
// wire.ReadFrame allocates the declared length before reading it, so
// the summary-sized limit here would let six bytes from anyone who can
// reach the listener pin maxFramePayload of memory per connection.
const maxHelloPayload = 4 << 10

// minHostSummary is the smallest encoded HostSummary (empty sketch and
// contact list), used to validate host counts before allocation.
const minHostSummary = 4 + 3*8 + 8 + 2*8 + 2*9 + 8 + 4 + 4

// Fingerprint pins every configuration knob the distributed split's
// bit-identity depends on: the window geometry the shards seal by and
// the detection operating point both phases compute with. A worker and
// coordinator with different fingerprints would not fail on their own —
// percentiles would just come out quietly different — so the hello
// handshake compares every field and refuses the connection on the
// first mismatch. Knobs that provably cannot change the output
// (Parallelism, DropLate, metrics) are deliberately excluded.
type Fingerprint struct {
	// Geometry.Shards is the deployment's worker-process count.
	engine.Geometry
	Origin time.Time

	VolPercentile          float64
	ChurnPercentile        float64
	HMPercentile           float64
	CutFraction            float64
	MinInterstitialSamples int
	MaxHistogramBins       int
	MaxDiameter            bool
	RawTimeScale           bool
}

// FingerprintOf derives the fingerprint of one shard engine
// configuration in an N-shard deployment.
func FingerprintOf(cfg engine.Config, shards int) Fingerprint {
	return Fingerprint{
		Geometry:               cfg.Geometry(shards),
		Origin:                 cfg.Origin,
		VolPercentile:          cfg.Core.VolPercentile,
		ChurnPercentile:        cfg.Core.ChurnPercentile,
		HMPercentile:           cfg.Core.HMPercentile,
		CutFraction:            cfg.Core.CutFraction,
		MinInterstitialSamples: cfg.Core.MinInterstitialSamples,
		MaxHistogramBins:       cfg.Core.MaxHistogramBins,
		MaxDiameter:            cfg.Core.MaxDiameter,
		RawTimeScale:           cfg.Core.RawTimeScale,
	}
}

// Check compares a worker's fingerprint against the coordinator's,
// naming the first mismatched knob: the shared geometry first, then the
// origin and the detection operating point.
func (f Fingerprint) Check(cur Fingerprint) error {
	knob, peer, mine := f.Geometry.Mismatch(cur.Geometry)
	for _, m := range []struct {
		name string
		a, b any
	}{
		{"origin", f.Origin.UnixNano(), cur.Origin.UnixNano()},
		{"vol percentile", f.VolPercentile, cur.VolPercentile},
		{"churn percentile", f.ChurnPercentile, cur.ChurnPercentile},
		{"hm percentile", f.HMPercentile, cur.HMPercentile},
		{"cut fraction", f.CutFraction, cur.CutFraction},
		{"min interstitial samples", f.MinInterstitialSamples, cur.MinInterstitialSamples},
		{"max histogram bins", f.MaxHistogramBins, cur.MaxHistogramBins},
		{"max-diameter", f.MaxDiameter, cur.MaxDiameter},
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
		return fmt.Errorf("dist: configuration fingerprint mismatch: peer runs with %s %v but this end is configured with %v — distributed detection requires identical configuration on every node",
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
	e.Bool(f.CarryFirstSeen)
	e.U32(uint32(f.Shards))
	e.F64(f.VolPercentile)
	e.F64(f.ChurnPercentile)
	e.F64(f.HMPercentile)
	e.F64(f.CutFraction)
	e.U32(uint32(f.MinInterstitialSamples))
	e.U32(uint32(f.MaxHistogramBins))
	e.Bool(f.MaxDiameter)
	e.Bool(f.RawTimeScale)
}

func decodeFingerprint(d *wire.Decoder) Fingerprint {
	var f Fingerprint
	f.Window = d.Dur()
	f.Slide = d.Dur()
	f.Origin = d.Time()
	f.MaxSkew = d.Dur()
	f.Grace = d.Dur()
	f.CarryFirstSeen = d.Bool()
	f.Shards = int(d.U32())
	f.VolPercentile = d.F64()
	f.ChurnPercentile = d.F64()
	f.HMPercentile = d.F64()
	f.CutFraction = d.F64()
	f.MinInterstitialSamples = int(d.U32())
	f.MaxHistogramBins = int(d.U32())
	f.MaxDiameter = d.Bool()
	f.RawTimeScale = d.Bool()
	return f
}

// hello is the first frame of every worker connection.
type hello struct {
	Version uint16
	Shard   int
	Resume  uint64 // first sequence number this connection will (re)send
	FP      Fingerprint
}

func encodeHello(h hello) []byte {
	var e wire.Encoder
	e.U16(h.Version)
	e.U32(uint32(h.Shard))
	e.U64(h.Resume)
	h.FP.encode(&e)
	return e.Bytes()
}

func decodeHello(data []byte) (hello, error) {
	d := wire.NewDecoder(data)
	h := hello{
		Version: d.U16(),
		Shard:   int(d.U32()),
		Resume:  d.U64(),
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
		e.I64(int64(h.SuccessfulFlows))
		e.I64(int64(h.FailedFlows))
		e.U64(h.BytesUploaded)
		e.I64(int64(h.Peers))
		e.I64(int64(h.NewPeers))
		e.Time(h.FirstSeen)
		e.Time(h.LastSeen)
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
	for i := 0; i < n && d.Err() == nil; i++ {
		h := &s.Hosts[i]
		h.Host = flow.IP(d.U32())
		h.Flows = int(d.I64())
		h.SuccessfulFlows = int(d.I64())
		h.FailedFlows = int(d.I64())
		h.BytesUploaded = d.U64()
		h.Peers = int(d.I64())
		h.NewPeers = int(d.I64())
		h.FirstSeen = d.Time()
		h.LastSeen = d.Time()
		h.InterstitialCount = int(d.I64())
		if bins := d.Count(16); bins > 0 {
			h.SketchPositions = make([]float64, bins)
			h.SketchWeights = make([]float64, bins)
			for j := 0; j < bins; j++ {
				h.SketchPositions[j] = d.F64()
				h.SketchWeights[j] = d.F64()
			}
		}
		if nc := d.Count(4); nc > 0 {
			h.Contacts = make([]flow.IP, nc)
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
