// IPFIX (RFC 7011, NetFlow v10) support.
//
// IPFIX shares v9's template machinery — the set walker, template
// learner and record cracker in v9.go, and the bounded TemplateCache
// keyed per (exporter, observation domain, template ID) — as a dialect
// of it, differing only where the wire formats differ:
//
//   - The 16-byte message header carries a total length instead of a
//     record count, and has no SysUptime, so the uptime-relative
//     timestamp fields (21/22) cannot be resolved and are skipped.
//     Absolute timestamps come from flowStartMilliseconds /
//     flowEndMilliseconds (IEs 152/153) or the seconds-resolution
//     150/151, falling back to the message export time.
//   - Set IDs move: 2 announces templates, 3 options templates, and
//     data sets still start at 256.
//   - Fields may be enterprise-specific (type high bit set, followed by
//     a 4-byte enterprise number) or variable-length (declared length
//     0xFFFF, actual length prefixed to each value). The decoder skips
//     both by length; only the standard fixed-size fields it shares
//     with v9 land in records.
//   - The sequence number counts cumulative data records, not export
//     packets (the row's SeqCountsFlows), so the collector measures
//     lost flows exactly.
//
// AppendIPFIX is the matching software exporter: every message is
// self-describing (template set + data set), bidirectional counters
// survive via the v9-compatible OUT_BYTES/OUT_PKTS (23/24), and
// timestamps ride 152/153 — so decode(encode(x)) loses nothing but
// sub-millisecond time, exactly like the v5 path.

package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"plotters/internal/flow"
)

// ipfixHeaderSize is the fixed IPFIX message header length: version,
// length, export_time, sequence, observation_domain_id.
const ipfixHeaderSize = 16

// IPFIX information elements mapped in addition to the v9-shared set.
const (
	fieldStartSec   = 150 // flowStartSeconds, absolute
	fieldEndSec     = 151 // flowEndSeconds, absolute
	fieldStartMilli = 152 // flowStartMilliseconds, absolute
	fieldEndMilli   = 153 // flowEndMilliseconds, absolute
)

// IPFIXHeader is the decoded fixed header of one IPFIX message.
type IPFIXHeader struct {
	// Length is the message's declared total length in bytes.
	Length int
	// Exported is the message export time (second resolution).
	Exported time.Time
	// Sequence counts cumulative data records sent by this stream
	// before this message; with per-message record counts it yields an
	// exact lost-flow measure.
	Sequence uint32
	// DomainID is the observation domain, scoping template IDs exactly
	// like v9's source ID.
	DomainID uint32
}

// DecodeIPFIX decodes one IPFIX message from exporter, learning
// template sets into the cache and appending data records to dst.
// Semantics mirror DecodeV9: unknown-template data sets are counted
// and skipped, structural errors keep earlier records.
func (tc *TemplateCache) DecodeIPFIX(exporter string, pkt []byte, dst []flow.Record) (IPFIXHeader, []flow.Record, V9Stats, error) {
	h, dst, stats, err := tc.decode(&dialectIPFIX, exporter, pkt, dst)
	return IPFIXHeader{Length: h.length, Exported: h.exported, Sequence: h.sequence, DomainID: h.stream}, dst, stats, err
}

// decodeIPFIX is the IPFIX row's Decode.
func decodeIPFIX(tc *TemplateCache, exporter string, pkt []byte, _ time.Time, dst []flow.Record) (Packet, []flow.Record, error) {
	hdr, recs, stats, err := tc.DecodeIPFIX(exporter, pkt, dst)
	return stats.packet(hdr.DomainID, hdr.Sequence), recs, err
}

// frameIPFIX is the IPFIX row's Frame: version + length is all the
// framing needs. A length below the four bytes already read is refused
// by readChunk, one below the header size by Decode.
func frameIPFIX(r io.Reader, buf []byte) ([]byte, error) {
	pkt, err := readChunk(r, buf[:0], 4)
	if err != nil {
		return pkt, err
	}
	return readChunk(r, pkt, int(binary.BigEndian.Uint16(pkt[2:]))-4)
}

// ipfixTemplateID is the template AppendIPFIX announces. Every message
// is self-describing, so a collector joining mid-stream decodes from
// the first packet it sees.
const ipfixTemplateID = 256

// ipfixField pairs an IE number with its encoded length, in the order
// AppendIPFIX writes them.
var ipfixExportFields = []v9Field{
	{typ: fieldSrcAddr, length: 4},
	{typ: fieldDstAddr, length: 4},
	{typ: fieldSrcPort, length: 2},
	{typ: fieldDstPort, length: 2},
	{typ: fieldProtocol, length: 1},
	{typ: fieldTCPFlags, length: 1},
	{typ: fieldInPkts, length: 4},
	{typ: fieldInBytes, length: 8},
	{typ: fieldOutPkts, length: 4},
	{typ: fieldOutBytes, length: 8},
	{typ: fieldStartMilli, length: 8},
	{typ: fieldEndMilli, length: 8},
}

// ipfixRecordSize is the wire length of one exported data record.
var ipfixRecordSize = func() int {
	n := 0
	for _, f := range ipfixExportFields {
		n += f.length
	}
	return n
}()

// AppendIPFIX encodes records as one self-describing IPFIX message
// (template set + data set) and appends it to dst. seq must be the
// cumulative count of data records sent before this message — IPFIX
// sequence semantics — so callers thread sum-of-records, not a packet
// counter. The mapping is lossless except sub-millisecond timestamps
// and the State→tcpControlBits projection shared with v5.
func AppendIPFIX(dst []byte, records []flow.Record, seq uint32) ([]byte, error) {
	if len(records) == 0 {
		return dst, fmt.Errorf("collector: refusing to encode an empty IPFIX message")
	}
	export := records[0].End
	for i := range records {
		r := &records[i]
		if r.End.Before(r.Start) {
			return dst, fmt.Errorf("collector: record %d ends before it starts", i)
		}
		if r.End.After(export) {
			export = r.End
		}
		if ms := r.Start.UnixMilli(); ms < 0 {
			return dst, fmt.Errorf("collector: record %d starts before the epoch", i)
		}
	}
	if ceil := export.Truncate(time.Second); ceil.Before(export) {
		export = ceil.Add(time.Second)
	}
	if secs := export.Unix(); secs < 0 || secs > math.MaxUint32 {
		return dst, fmt.Errorf("collector: export time %v outside the IPFIX export_time range", export)
	}

	tmplSetLen := 4 + 4 + 4*len(ipfixExportFields)
	dataSetLen := 4 + len(records)*ipfixRecordSize
	total := ipfixHeaderSize + tmplSetLen + dataSetLen
	if total > math.MaxUint16 {
		return dst, fmt.Errorf("collector: %d records exceed one IPFIX message (%d bytes)", len(records), total)
	}

	be := binary.BigEndian
	var hdr [ipfixHeaderSize]byte
	be.PutUint16(hdr[0:], 10)
	be.PutUint16(hdr[2:], uint16(total))
	be.PutUint32(hdr[4:], uint32(export.Unix()))
	be.PutUint32(hdr[8:], seq)
	// observation_domain_id: zero (single software exporter).
	dst = append(dst, hdr[:]...)

	// Template set.
	var set [4]byte
	be.PutUint16(set[0:], 2)
	be.PutUint16(set[2:], uint16(tmplSetLen))
	dst = append(dst, set[:]...)
	var tmpl [4]byte
	be.PutUint16(tmpl[0:], ipfixTemplateID)
	be.PutUint16(tmpl[2:], uint16(len(ipfixExportFields)))
	dst = append(dst, tmpl[:]...)
	for _, f := range ipfixExportFields {
		var fb [4]byte
		be.PutUint16(fb[0:], f.typ)
		be.PutUint16(fb[2:], uint16(f.length))
		dst = append(dst, fb[:]...)
	}

	// Data set.
	be.PutUint16(set[0:], ipfixTemplateID)
	be.PutUint16(set[2:], uint16(dataSetLen))
	dst = append(dst, set[:]...)
	var rec [54]byte // = ipfixRecordSize
	for i := range records {
		r := &records[i]
		b := rec[:ipfixRecordSize]
		clear(b)
		be.PutUint32(b[0:], uint32(r.Src))
		be.PutUint32(b[4:], uint32(r.Dst))
		be.PutUint16(b[8:], r.SrcPort)
		be.PutUint16(b[10:], r.DstPort)
		b[12] = byte(r.Proto)
		b[13] = stateFlags(r.Proto, r.State)
		be.PutUint32(b[14:], r.SrcPkts)
		be.PutUint64(b[18:], r.SrcBytes)
		be.PutUint32(b[26:], r.DstPkts)
		be.PutUint64(b[30:], r.DstBytes)
		be.PutUint64(b[38:], uint64(r.Start.UnixMilli()))
		be.PutUint64(b[46:], uint64(r.End.UnixMilli()))
		dst = append(dst, b...)
	}
	return dst, nil
}
