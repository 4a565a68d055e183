package collector

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"plotters/internal/flow"
)

// v9HeaderSize is the fixed NetFlow v9 packet header length: version,
// count, sys_uptime, unix_secs, package_sequence, source_id.
const v9HeaderSize = 20

// dialect is what the one template-set walker (decode, learn, crack)
// needs to know about which of the two template protocols it is reading.
type dialect struct {
	name        string // in error messages
	version     uint16
	headerSize  int
	templateSet uint16 // set id that announces templates; every other id below 256 is skipped
	// ipfix selects RFC 7011's header, field encoding and clocks (see
	// ipfix.go): a declared message length and no uptime, enterprise-bit
	// fields followed by a PEN, 0xFFFF meaning variable length, absolute
	// timestamps in IEs 150–153 and 21/22 unresolvable. Off, the v9
	// header's uptime resolves 21/22 against boot time, every template
	// field is a plain (type, length) pair, and 150–153 are not read.
	ipfix bool
}

var (
	dialectV9    = dialect{name: "v9", version: 9, headerSize: v9HeaderSize, templateSet: 0}
	dialectIPFIX = dialect{name: "IPFIX", version: 10, headerSize: ipfixHeaderSize, templateSet: 2, ipfix: true}
)

// templateHeader is either dialect's fixed header, as the walker reads it.
type templateHeader struct {
	length   int           // IPFIX: declared message length
	uptime   time.Duration // v9: time since the exporter booted
	exported time.Time
	sequence uint32
	stream   uint32 // v9 source ID, IPFIX observation domain: scopes template IDs
}

// Field types the decoder maps onto flow.Record, shared by both
// dialects. Unknown types are skipped by their template-declared
// length, which is what makes the decoder template-lite: any layout
// parses, only these fields land in the record.
const (
	fieldInBytes  = 1  // SrcBytes
	fieldInPkts   = 2  // SrcPkts
	fieldProtocol = 4  // Proto
	fieldTCPFlags = 6  // State (see flagsState)
	fieldSrcPort  = 7  // SrcPort
	fieldSrcAddr  = 8  // Src (IPv4)
	fieldDstPort  = 11 // DstPort
	fieldDstAddr  = 12 // Dst (IPv4)
	fieldLastMS   = 21 // End, sysuptime-relative ms
	fieldFirstMS  = 22 // Start, sysuptime-relative ms
	fieldOutBytes = 23 // DstBytes
	fieldOutPkts  = 24 // DstPkts
)

// V9Header is the decoded fixed header of one NetFlow v9 packet.
type V9Header struct {
	// SysUptime and Exported reconstruct absolute record times exactly
	// as in v5 (Exported has only second resolution in v9).
	SysUptime time.Duration
	Exported  time.Time
	// Sequence counts export packets (not flows, unlike v5) from this
	// source; gaps measure lost packets.
	Sequence uint32
	// SourceID scopes template IDs: templates are cached per
	// (exporter, SourceID, template ID).
	SourceID uint32
}

// V9Stats summarizes the non-record outcomes of decoding one packet.
type V9Stats struct {
	// TemplatesLearned counts template definitions absorbed.
	TemplatesLearned int
	// Records counts flow records decoded from data FlowSets.
	Records int
	// MissingTemplate counts data FlowSets skipped because their
	// template has not been seen yet (a fact of v9 life after an
	// exporter or collector restart — exporters re-announce templates
	// periodically).
	MissingTemplate int
	// SkippedSets counts FlowSets ignored by design (options
	// templates and options data).
	SkippedSets int
	// TemplatesEvicted counts cached templates displaced by the
	// per-exporter LRU bound while learning this packet's templates.
	TemplatesEvicted int
}

// v9Field is one template field: an IANA type and a wire length.
type v9Field struct {
	typ    uint16
	length int
}

// v9Template is one cached template's layout.
type v9Template struct {
	fields  []v9Field
	recLen  int
	hasFlag bool // template carries TCP_FLAGS
	hasOut  bool // template carries OUT_PKTS
	// lastUsed is the cache's logical clock at the template's most
	// recent store or lookup; the eviction victim is the minimum.
	// Guarded by TemplateCache.mu.
	lastUsed uint64
}

// v9TemplateKey scopes a template to its announcing exporter stream.
type v9TemplateKey struct {
	exporter string
	sourceID uint32
	id       uint16
}

// DefaultTemplateLimit is the per-exporter template cap applied by
// NewTemplateCache. Real exporters announce a handful of templates;
// thousands from one source address is either a misconfiguration or an
// exhaustion attack, and either way the cache must stay bounded.
const DefaultTemplateLimit = 4096

// TemplateCache holds NetFlow v9 and IPFIX templates across packets,
// keyed by (exporter, source ID, template ID). The cache is bounded:
// each exporter address may hold at most limit templates, and storing
// past the cap evicts that exporter's least-recently-used entry (use =
// store or data-set lookup) rather than growing — one noisy or hostile
// exporter cannot displace another's templates or exhaust collector
// memory. Safe for concurrent use — decode workers share one cache.
type TemplateCache struct {
	mu      sync.Mutex
	m       map[v9TemplateKey]*v9Template
	counts  map[string]int // live templates per exporter
	limit   int
	clock   uint64 // logical recency clock, ticks on store/lookup
	evicted uint64
}

// NewTemplateCache returns an empty cache holding at most
// DefaultTemplateLimit templates per exporter.
func NewTemplateCache() *TemplateCache {
	return NewTemplateCacheLimit(DefaultTemplateLimit)
}

// NewTemplateCacheLimit returns an empty cache capped at limit
// templates per exporter; limit <= 0 means DefaultTemplateLimit.
func NewTemplateCacheLimit(limit int) *TemplateCache {
	if limit <= 0 {
		limit = DefaultTemplateLimit
	}
	return &TemplateCache{
		m:      make(map[v9TemplateKey]*v9Template),
		counts: make(map[string]int),
		limit:  limit,
	}
}

// Templates returns how many templates are cached.
func (tc *TemplateCache) Templates() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.m)
}

// Evicted returns how many templates the per-exporter bound has
// displaced since the cache was created.
func (tc *TemplateCache) Evicted() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.evicted
}

// store caches t under key, evicting the key's exporter's
// least-recently-used template first when the exporter is at its cap.
// Returns how many templates were evicted (0 or 1).
func (tc *TemplateCache) store(key v9TemplateKey, t *v9Template) int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.clock++
	t.lastUsed = tc.clock
	if _, ok := tc.m[key]; ok {
		tc.m[key] = t // refresh in place: count unchanged
		return 0
	}
	evictions := 0
	if tc.counts[key.exporter] >= tc.limit {
		tc.evictLRU(key.exporter)
		evictions = 1
	}
	tc.m[key] = t
	tc.counts[key.exporter]++
	return evictions
}

// evictLRU removes exporter's least-recently-used template. Called with
// tc.mu held. The scan is linear in the cache size, but runs only when
// an exporter overflows its cap — never on the steady-state decode path.
func (tc *TemplateCache) evictLRU(exporter string) {
	var victim v9TemplateKey
	var oldest uint64
	found := false
	for k, t := range tc.m {
		if k.exporter != exporter {
			continue
		}
		if !found || t.lastUsed < oldest {
			victim, oldest, found = k, t.lastUsed, true
		}
	}
	if !found {
		return // cap > 0 with a zero count: nothing to displace
	}
	delete(tc.m, victim)
	tc.counts[exporter]--
	if tc.counts[exporter] == 0 {
		delete(tc.counts, exporter)
	}
	tc.evicted++
}

func (tc *TemplateCache) lookup(key v9TemplateKey) *v9Template {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	t := tc.m[key]
	if t != nil {
		tc.clock++
		t.lastUsed = tc.clock
	}
	return t
}

// DecodeV9 decodes one NetFlow v9 packet from exporter, learning any
// template FlowSets into the cache and appending data records to dst.
// Data FlowSets whose template is unknown are counted and skipped, not
// errors — the exporter will re-announce. A structural error (truncated
// FlowSet, malformed template) abandons the rest of the packet but
// keeps everything decoded before it.
func (tc *TemplateCache) DecodeV9(exporter string, pkt []byte, dst []flow.Record) (V9Header, []flow.Record, V9Stats, error) {
	h, dst, stats, err := tc.decode(&dialectV9, exporter, pkt, dst)
	return V9Header{SysUptime: h.uptime, Exported: h.exported, Sequence: h.sequence, SourceID: h.stream}, dst, stats, err
}

// decode is the set walker behind DecodeV9 and DecodeIPFIX: fixed
// header, then sets until the packet ends — template sets are learned,
// data sets cracked against their cached template, the rest skipped.
func (tc *TemplateCache) decode(d *dialect, exporter string, pkt []byte, dst []flow.Record) (templateHeader, []flow.Record, V9Stats, error) {
	var stats V9Stats
	var hdr templateHeader
	if len(pkt) < d.headerSize {
		return hdr, dst, stats, fmt.Errorf("%w: %d bytes, need %d for the %s header", ErrTruncated, len(pkt), d.headerSize, d.name)
	}
	be := binary.BigEndian
	if v := be.Uint16(pkt); v != d.version {
		return hdr, dst, stats, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, d.version)
	}
	if d.ipfix {
		hdr = templateHeader{
			length:   int(be.Uint16(pkt[2:])),
			exported: time.Unix(int64(be.Uint32(pkt[4:])), 0).UTC(),
			sequence: be.Uint32(pkt[8:]),
			stream:   be.Uint32(pkt[12:]),
		}
		if hdr.length < d.headerSize || hdr.length > len(pkt) {
			return hdr, dst, stats, fmt.Errorf("%w: message declares %d bytes, datagram has %d", ErrTruncated, hdr.length, len(pkt))
		}
		pkt = pkt[:hdr.length] // spec: the message is exactly Length bytes
	} else {
		hdr = templateHeader{
			uptime:   time.Duration(be.Uint32(pkt[4:])) * time.Millisecond,
			exported: time.Unix(int64(be.Uint32(pkt[8:])), 0).UTC(),
			sequence: be.Uint32(pkt[12:]),
			stream:   be.Uint32(pkt[16:]),
		}
	}
	boot := hdr.exported.Add(-hdr.uptime)

	off := d.headerSize
	for off+4 <= len(pkt) {
		setID := be.Uint16(pkt[off:])
		setLen := int(be.Uint16(pkt[off+2:]))
		if setLen < 4 || off+setLen > len(pkt) {
			return hdr, dst, stats, fmt.Errorf("%w: %s set %d claims %d bytes with %d remaining", ErrCorrupt, d.name, setID, setLen, len(pkt)-off)
		}
		body := pkt[off+4 : off+setLen]
		switch {
		case setID == d.templateSet:
			n, ev, err := tc.learn(d, exporter, hdr.stream, body)
			stats.TemplatesLearned += n
			stats.TemplatesEvicted += ev
			if err != nil {
				return hdr, dst, stats, err
			}
		case setID < 256: // options templates (out of scope) and reserved ids
			stats.SkippedSets++
		default: // data set
			t := tc.lookup(v9TemplateKey{exporter, hdr.stream, setID})
			if t == nil {
				stats.MissingTemplate++
				break
			}
			var err error
			dst, stats.Records, err = t.crack(d, body, boot, hdr.exported, dst, stats.Records)
			if err != nil {
				return hdr, dst, stats, err
			}
		}
		off += setLen
	}
	return hdr, dst, stats, nil
}

// packet is the Packet a template protocol's row reports for s.
func (s V9Stats) packet(stream, seq uint32) Packet {
	return Packet{Stream: uint16(stream), Sequence: seq, Templates: s.TemplatesLearned,
		MissingTemplates: s.MissingTemplate, Evicted: s.TemplatesEvicted}
}

// decodeV9 is the v9 row's Decode.
func decodeV9(tc *TemplateCache, exporter string, pkt []byte, _ time.Time, dst []flow.Record) (Packet, []flow.Record, error) {
	hdr, recs, stats, err := tc.DecodeV9(exporter, pkt, dst)
	return stats.packet(hdr.SourceID, hdr.Sequence), recs, err
}

// unknownField marks template slots the decoder only skips: IPFIX
// enterprise-specific and variable-length fields.
const unknownField = 0xFFFF

// ipfixVarLen in an IPFIX template field's length slot declares a
// variable-length field whose actual length prefixes each value.
const ipfixVarLen = 0xFFFF

// learn parses one template set body: a sequence of (template ID, field
// count, fields...) definitions. The IPFIX dialect differs in the field
// encoding only: enterprise-specific fields (type high bit) carry a
// trailing 4-byte enterprise number and are cached as skip-only, and a
// declared length of 0xFFFF marks a variable-length field (cached with
// length -1). Returns templates learned and cache entries the
// per-exporter bound evicted.
func (tc *TemplateCache) learn(d *dialect, exporter string, stream uint32, body []byte) (int, int, error) {
	be := binary.BigEndian
	learned, evictions := 0, 0
	for len(body) >= 4 {
		id := be.Uint16(body)
		fieldCount := int(be.Uint16(body[2:]))
		body = body[4:]
		if id < 256 {
			return learned, evictions, fmt.Errorf("%w: template ID %d is reserved", ErrCorrupt, id)
		}
		if len(body) < fieldCount*4 {
			return learned, evictions, fmt.Errorf("%w: template %d declares %d fields with %d bytes left", ErrCorrupt, id, fieldCount, len(body))
		}
		t := &v9Template{fields: make([]v9Field, 0, fieldCount)}
		for i := 0; i < fieldCount; i++ {
			if len(body) < 4 { // enterprise numbers ate the slack
				return learned, evictions, fmt.Errorf("%w: template %d truncated at field %d", ErrCorrupt, id, i)
			}
			typ := be.Uint16(body)
			length := int(be.Uint16(body[2:]))
			body = body[4:]
			if d.ipfix && typ&0x8000 != 0 {
				if len(body) < 4 {
					return learned, evictions, fmt.Errorf("%w: template %d enterprise field %d lacks its PEN", ErrCorrupt, id, i)
				}
				body = body[4:] // private enterprise number
				typ = unknownField
			}
			if d.ipfix && length == ipfixVarLen {
				t.fields = append(t.fields, v9Field{typ: unknownField, length: -1})
				t.recLen++ // at least the 1-byte length prefix
				continue
			}
			if length == 0 {
				return learned, evictions, fmt.Errorf("%w: template %d field %d has zero length", ErrCorrupt, id, typ)
			}
			t.fields = append(t.fields, v9Field{typ: typ, length: length})
			t.recLen += length
			switch typ {
			case fieldTCPFlags:
				t.hasFlag = true
			case fieldOutPkts:
				t.hasOut = true
			}
		}
		if t.recLen == 0 {
			return learned, evictions, fmt.Errorf("%w: template %d has no fields", ErrCorrupt, id)
		}
		evictions += tc.store(v9TemplateKey{exporter, stream, id}, t)
		learned++
	}
	return learned, evictions, nil
}

// crack decodes a data set body against the template, appending to
// dst. A fixed-layout template strides the body by recLen; one with
// variable-length fields is walked value by value. Trailing bytes
// shorter than one record are padding. Timestamps come from the
// dialect's clock — v9: 21/22 against boot; IPFIX: 152/153, else the
// seconds-resolution 150/151 — and default to the export time.
func (t *v9Template) crack(d *dialect, body []byte, boot, exported time.Time, dst []flow.Record, n int) ([]flow.Record, int, error) {
	for len(body) >= t.recLen {
		rec := flow.Record{Start: exported, End: exported}
		var flags byte
		var outPkts uint64
		var first, last, startMS, endMS, startS, endS int64 = -1, -1, -1, -1, -1, -1
		off := 0
		for _, f := range t.fields {
			length := f.length
			if length < 0 { // variable-length: 1- or 3-byte prefix
				if off >= len(body) {
					return dst, n, nil
				}
				length = int(body[off])
				off++
				if length == 255 {
					if off+2 > len(body) {
						return dst, n, nil
					}
					length = int(binary.BigEndian.Uint16(body[off:]))
					off += 2
				}
			}
			if off+length > len(body) {
				return dst, n, nil
			}
			raw := body[off : off+length]
			off += length
			v, ok := uintField(raw)
			if !ok {
				continue // wider than 8 bytes: not a numeric field we read
			}
			switch f.typ {
			case fieldInBytes:
				rec.SrcBytes = v
			case fieldInPkts:
				rec.SrcPkts = uint32(min(v, 1<<32-1))
			case fieldProtocol:
				rec.Proto = flow.Proto(v)
			case fieldTCPFlags:
				flags = byte(v)
			case fieldSrcPort:
				rec.SrcPort = uint16(v)
			case fieldSrcAddr:
				rec.Src = flow.IP(v)
			case fieldDstPort:
				rec.DstPort = uint16(v)
			case fieldDstAddr:
				rec.Dst = flow.IP(v)
			case fieldFirstMS:
				first = int64(v)
			case fieldLastMS:
				last = int64(v)
			case fieldOutBytes:
				rec.DstBytes = v
			case fieldOutPkts:
				rec.DstPkts = uint32(min(v, 1<<32-1))
				outPkts = v
			case fieldStartMilli:
				startMS = int64(v)
			case fieldEndMilli:
				endMS = int64(v)
			case fieldStartSec:
				startS = int64(v)
			case fieldEndSec:
				endS = int64(v)
			}
		}
		if d.ipfix {
			switch {
			case startMS >= 0:
				rec.Start = time.UnixMilli(startMS).UTC()
			case startS >= 0:
				rec.Start = time.Unix(startS, 0).UTC()
			}
			switch {
			case endMS >= 0:
				rec.End = time.UnixMilli(endMS).UTC()
			case endS >= 0:
				rec.End = time.Unix(endS, 0).UTC()
			}
		} else {
			if first >= 0 {
				rec.Start = boot.Add(time.Duration(first) * time.Millisecond)
			}
			if last >= 0 {
				rec.End = boot.Add(time.Duration(last) * time.Millisecond)
			}
		}
		if rec.End.Before(rec.Start) {
			return dst, n, fmt.Errorf("%w: %s record ends before it starts", ErrCorrupt, d.name)
		}
		rec.State = t.state(rec.Proto, flags, outPkts)
		dst = append(dst, rec)
		n++
		body = body[off:]
	}
	return dst, n, nil
}

// state derives the connection outcome from what the template offers:
// tcp_flags when announced (same rule as v5), else the presence of
// reply packets, else the conservative "established".
func (t *v9Template) state(proto flow.Proto, flags byte, outPkts uint64) flow.ConnState {
	switch {
	case t.hasFlag:
		return flagsState(proto, flags)
	case t.hasOut:
		if outPkts > 0 {
			return flow.StateEstablished
		}
		return flow.StateFailed
	default:
		return flow.StateEstablished
	}
}

// uintField reads a 1..8-byte big-endian unsigned field.
func uintField(b []byte) (uint64, bool) {
	if len(b) > 8 {
		return 0, false
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v, true
}
