// sFlow version 5 support.
//
// sFlow is packet sampling, not flow export: an agent ships the first
// bytes of sampled frames (raw packet header records) and counters,
// with no flow state and — critically — no wall-clock timestamps
// anywhere in the format. Two decode paths handle that gap:
//
//   - Standard raw-packet-header records (enterprise 0, format 1) are
//     cracked Ethernet → IPv4 → TCP/UDP for the 5-tuple and TCP flags.
//     One sampled frame becomes one single-packet flow record stamped
//     with the collector's arrival clock — the best any sFlow consumer
//     can do, and inherently non-deterministic across runs.
//
//   - A software-exporter extension record (enterprise 65001, format 1)
//     carries the complete flow: 5-tuple, connection state, absolute
//     millisecond timestamps, and exact bidirectional counters. When a
//     flow sample includes the extension, the decoder uses it verbatim
//     and ignores the arrival clock, making decode(encode(x)) as
//     lossless and replay-deterministic as the v5/IPFIX paths.
//
// AppendSFlow emits both records per flow sample: the extension for
// fidelity, plus a synthesized raw Ethernet/IPv4/TCP|UDP header so the
// standard parse path is exercised by every emitted datagram (and by
// the fuzzer) and foreign collectors still get the 5-tuple.

package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"plotters/internal/flow"
)

// sflowExtEnterprise is the private enterprise number of the software
// exporter's extension record (from the experimental/private range).
const sflowExtEnterprise = 65001

// sflowExtRecordLen is the extension record body: src, dst (4+4),
// ports (2+2), proto, state, pad (1+1+2), startMs, endMs (8+8),
// srcBytes, dstBytes (8+8), srcPkts, dstPkts (4+4).
const sflowExtRecordLen = 56

// SFlowHeader is the decoded fixed header of one sFlow v5 datagram.
type SFlowHeader struct {
	// SubAgent distinguishes exporting processes within one agent.
	SubAgent uint32
	// Sequence counts datagrams from this (agent, sub-agent) stream.
	Sequence uint32
	// Uptime is the agent's uptime at export (the format's only clock).
	Uptime time.Duration
	// Samples is the datagram's declared sample count.
	Samples int
}

// SFlowStats summarizes the non-record outcomes of decoding one
// datagram.
type SFlowStats struct {
	// Records counts flow records decoded from flow samples.
	Records int
	// SkippedSamples counts samples of types this decoder does not
	// handle (counter samples, expanded formats, vendor samples).
	SkippedSamples int
	// SkippedRecords counts flow records within handled samples that
	// were skipped (unknown formats, non-IPv4 headers).
	SkippedRecords int
}

// DecodeSFlow decodes one sFlow v5 datagram, appending one flow record
// per usable flow sample to dst. arrival stamps records reconstructed
// from raw packet headers only; samples carrying the software-exporter
// extension are decoded exactly and ignore it. Unknown sample and
// record types are counted and skipped, never errors — sFlow datagrams
// routinely interleave counter samples with flow samples.
func DecodeSFlow(pkt []byte, arrival time.Time, dst []flow.Record) (SFlowHeader, []flow.Record, SFlowStats, error) {
	var stats SFlowStats
	be := binary.BigEndian
	if len(pkt) < 4 || be.Uint32(pkt) != 5 {
		return SFlowHeader{}, dst, stats, fmt.Errorf("%w: not an sFlow v5 datagram", ErrVersion)
	}
	off := 4
	// Agent address: type then 4 (IPv4) or 16 (IPv6) bytes.
	if off+4 > len(pkt) {
		return SFlowHeader{}, dst, stats, fmt.Errorf("%w: datagram ends in the agent address", ErrTruncated)
	}
	switch be.Uint32(pkt[off:]) {
	case 1:
		off += 4 + 4
	case 2:
		off += 4 + 16
	default:
		return SFlowHeader{}, dst, stats, fmt.Errorf("%w: agent address type %d", ErrCorrupt, be.Uint32(pkt[off:]))
	}
	if off+16 > len(pkt) {
		return SFlowHeader{}, dst, stats, fmt.Errorf("%w: datagram ends in the header", ErrTruncated)
	}
	hdr := SFlowHeader{
		SubAgent: be.Uint32(pkt[off:]),
		Sequence: be.Uint32(pkt[off+4:]),
		Uptime:   time.Duration(be.Uint32(pkt[off+8:])) * time.Millisecond,
		Samples:  int(be.Uint32(pkt[off+12:])),
	}
	off += 16

	for s := 0; s < hdr.Samples; s++ {
		if off+8 > len(pkt) {
			return hdr, dst, stats, fmt.Errorf("%w: datagram ends at sample %d", ErrTruncated, s)
		}
		sampleType := be.Uint32(pkt[off:])
		sampleLen := int(be.Uint32(pkt[off+4:]))
		off += 8
		if sampleLen < 0 || off+sampleLen > len(pkt) {
			return hdr, dst, stats, fmt.Errorf("%w: sample %d claims %d bytes with %d remaining", ErrCorrupt, s, sampleLen, len(pkt)-off)
		}
		body := pkt[off : off+sampleLen]
		off += sampleLen
		if sampleType != 1 { // standard flow_sample only
			stats.SkippedSamples++
			continue
		}
		rec, ok, skipped, err := decodeFlowSample(body, arrival)
		stats.SkippedRecords += skipped
		if err != nil {
			return hdr, dst, stats, err
		}
		if !ok {
			stats.SkippedSamples++
			continue
		}
		dst = append(dst, rec)
		stats.Records++
	}
	return hdr, dst, stats, nil
}

// decodeSFlow is the sFlow row's Decode.
func decodeSFlow(_ *TemplateCache, _ string, pkt []byte, arrival time.Time, dst []flow.Record) (Packet, []flow.Record, error) {
	hdr, recs, stats, err := DecodeSFlow(pkt, arrival, dst)
	return Packet{Stream: uint16(hdr.SubAgent), Sequence: hdr.Sequence,
		Skipped: stats.SkippedSamples + stats.SkippedRecords}, recs, err
}

// frameSFlow is the sFlow row's Frame. sFlow has no datagram-length
// field, but it still frames itself one level down: the fixed header,
// then each sample's (type, length) pair.
func frameSFlow(r io.Reader, buf []byte) ([]byte, error) {
	be := binary.BigEndian
	// Version + agent address type size the rest of the fixed header.
	pkt, err := readChunk(r, buf[:0], 8)
	if err != nil {
		return pkt, err
	}
	var addrLen int
	switch t := be.Uint32(pkt[4:]); t {
	case 1:
		addrLen = 4
	case 2:
		addrLen = 16
	default:
		return pkt, fmt.Errorf("%w: agent address type %d", ErrCorrupt, t)
	}
	// Agent address, then sub-agent, sequence, uptime, sample count.
	if pkt, err = readChunk(r, pkt, addrLen+16); err != nil {
		return pkt, err
	}
	for s := be.Uint32(pkt[len(pkt)-4:]); s > 0; s-- {
		if pkt, err = readChunk(r, pkt, 8); err != nil { // sample type + length
			return pkt, err
		}
		if pkt, err = readChunk(r, pkt, int(be.Uint32(pkt[len(pkt)-4:]))); err != nil {
			return pkt, err
		}
	}
	return pkt, nil
}

// decodeFlowSample cracks one standard flow_sample body into at most
// one flow record, preferring the extension record over a raw-header
// reconstruction when both are present.
func decodeFlowSample(body []byte, arrival time.Time) (flow.Record, bool, int, error) {
	be := binary.BigEndian
	// seq, source_id, sampling_rate, sample_pool, drops, input, output,
	// record count.
	if len(body) < 32 {
		return flow.Record{}, false, 0, fmt.Errorf("%w: flow sample of %d bytes", ErrTruncated, len(body))
	}
	nrec := int(be.Uint32(body[28:]))
	body = body[32:]

	var rec flow.Record
	var haveExt, haveRaw bool
	skipped := 0
	for i := 0; i < nrec; i++ {
		if len(body) < 8 {
			return flow.Record{}, false, skipped, fmt.Errorf("%w: flow sample ends at record %d", ErrTruncated, i)
		}
		format := be.Uint32(body)
		recLen := int(be.Uint32(body[4:]))
		body = body[8:]
		if recLen < 0 || recLen > len(body) {
			return flow.Record{}, false, skipped, fmt.Errorf("%w: flow record %d claims %d bytes with %d remaining", ErrCorrupt, i, recLen, len(body))
		}
		data := body[:recLen]
		body = body[recLen:]
		switch format {
		case sflowExtEnterprise<<12 | 1:
			if ext, ok := decodeSFlowExtension(data); ok {
				rec, haveExt = ext, true
			} else {
				skipped++
			}
		case 1: // raw packet header
			if haveExt {
				break // extension already gave the exact record
			}
			if raw, ok := decodeRawPacketHeader(data, arrival); ok {
				rec, haveRaw = raw, true
			} else {
				skipped++
			}
		default:
			skipped++
		}
	}
	return rec, haveExt || haveRaw, skipped, nil
}

// decodeSFlowExtension reads the software exporter's complete-flow
// record.
func decodeSFlowExtension(data []byte) (flow.Record, bool) {
	if len(data) < sflowExtRecordLen {
		return flow.Record{}, false
	}
	be := binary.BigEndian
	rec := flow.Record{
		Src:      flow.IP(be.Uint32(data[0:])),
		Dst:      flow.IP(be.Uint32(data[4:])),
		SrcPort:  be.Uint16(data[8:]),
		DstPort:  be.Uint16(data[10:]),
		Proto:    flow.Proto(data[12]),
		State:    flow.ConnState(data[13]),
		Start:    time.UnixMilli(int64(be.Uint64(data[16:]))).UTC(),
		End:      time.UnixMilli(int64(be.Uint64(data[24:]))).UTC(),
		SrcBytes: be.Uint64(data[32:]),
		DstBytes: be.Uint64(data[40:]),
		SrcPkts:  be.Uint32(data[48:]),
		DstPkts:  be.Uint32(data[52:]),
	}
	if rec.End.Before(rec.Start) {
		return flow.Record{}, false
	}
	return rec, true
}

// decodeRawPacketHeader reconstructs a single-packet flow record from
// a sampled Ethernet frame: 5-tuple and TCP flags from the headers,
// frame length as the byte count, the arrival clock as both
// timestamps. Non-Ethernet, non-IPv4, and non-TCP/UDP frames are
// skipped.
func decodeRawPacketHeader(data []byte, arrival time.Time) (flow.Record, bool) {
	be := binary.BigEndian
	// header_protocol, frame_length, stripped, header_length, bytes.
	if len(data) < 16 {
		return flow.Record{}, false
	}
	if be.Uint32(data) != 1 { // 1 = ETHERNET-ISO8023
		return flow.Record{}, false
	}
	frameLen := be.Uint32(data[4:])
	hdrLen := int(be.Uint32(data[12:]))
	if hdrLen < 0 || 16+hdrLen > len(data) {
		return flow.Record{}, false
	}
	frame := data[16 : 16+hdrLen]

	// Ethernet: dst MAC, src MAC, EtherType.
	if len(frame) < 14 || be.Uint16(frame[12:]) != 0x0800 {
		return flow.Record{}, false
	}
	ip := frame[14:]
	if len(ip) < 20 || ip[0]>>4 != 4 {
		return flow.Record{}, false
	}
	ihl := int(ip[0]&0x0F) * 4
	if ihl < 20 || len(ip) < ihl {
		return flow.Record{}, false
	}
	proto := flow.Proto(ip[9])
	l4 := ip[ihl:]

	rec := flow.Record{
		Src:      flow.IP(be.Uint32(ip[12:])),
		Dst:      flow.IP(be.Uint32(ip[16:])),
		Proto:    proto,
		Start:    arrival,
		End:      arrival,
		SrcPkts:  1,
		SrcBytes: uint64(frameLen),
		State:    flow.StateEstablished,
	}
	switch proto {
	case flow.TCP:
		if len(l4) < 14 {
			return flow.Record{}, false
		}
		rec.SrcPort = be.Uint16(l4[0:])
		rec.DstPort = be.Uint16(l4[2:])
		rec.State = flagsState(flow.TCP, l4[13])
	case flow.UDP:
		if len(l4) < 4 {
			return flow.Record{}, false
		}
		rec.SrcPort = be.Uint16(l4[0:])
		rec.DstPort = be.Uint16(l4[2:])
	default:
		return flow.Record{}, false
	}
	return rec, true
}

// AppendSFlow encodes records as one sFlow v5 datagram — one flow
// sample per record, each carrying a synthesized raw packet header
// plus the software-exporter extension — and appends it to dst. seq
// numbers the datagram; sample sequence numbers continue from
// seq*len(records) so replayed streams stay strictly increasing.
func AppendSFlow(dst []byte, records []flow.Record, seq uint32) ([]byte, error) {
	if len(records) == 0 {
		return dst, fmt.Errorf("collector: refusing to encode an empty sFlow datagram")
	}
	for i := range records {
		r := &records[i]
		if r.End.Before(r.Start) {
			return dst, fmt.Errorf("collector: record %d ends before it starts", i)
		}
		if r.Start.UnixMilli() < 0 {
			return dst, fmt.Errorf("collector: record %d starts before the epoch", i)
		}
	}
	be := binary.BigEndian

	var hdr [28]byte
	be.PutUint32(hdr[0:], 5)              // version
	be.PutUint32(hdr[4:], 1)              // agent address type: IPv4
	copy(hdr[8:12], []byte{127, 0, 0, 1}) // software exporter agent
	// sub_agent_id: zero.
	be.PutUint32(hdr[16:], seq)
	// uptime: zero — timestamps ride the extension record instead.
	be.PutUint32(hdr[24:], uint32(len(records)))
	dst = append(dst, hdr[:]...)

	for i := range records {
		r := &records[i]
		raw := sflowRawHeader(r)
		// flow_sample body: seq, source_id, rate, pool, drops, input,
		// output, nrecords, then the two records with their headers.
		sampleLen := 32 + 8 + len(raw) + 8 + sflowExtRecordLen
		var sh [8]byte
		be.PutUint32(sh[0:], 1) // standard flow_sample
		be.PutUint32(sh[4:], uint32(sampleLen))
		dst = append(dst, sh[:]...)

		var fs [32]byte
		be.PutUint32(fs[0:], seq*uint32(len(records))+uint32(i))    // sample seq
		be.PutUint32(fs[4:], 0x02<<24)                              // source_id: entPhysicalEntry 0
		be.PutUint32(fs[8:], 1)                                     // sampling_rate 1-in-1
		be.PutUint32(fs[12:], seq*uint32(len(records))+uint32(i)+1) // sample_pool
		// drops, input, output: zero.
		be.PutUint32(fs[28:], 2) // two flow records follow
		dst = append(dst, fs[:]...)

		// Raw packet header record.
		var rh [8]byte
		be.PutUint32(rh[0:], 1) // enterprise 0, format 1
		be.PutUint32(rh[4:], uint32(len(raw)))
		dst = append(dst, rh[:]...)
		dst = append(dst, raw...)

		// Extension record.
		be.PutUint32(rh[0:], sflowExtEnterprise<<12|1)
		be.PutUint32(rh[4:], sflowExtRecordLen)
		dst = append(dst, rh[:]...)
		var ext [sflowExtRecordLen]byte
		be.PutUint32(ext[0:], uint32(r.Src))
		be.PutUint32(ext[4:], uint32(r.Dst))
		be.PutUint16(ext[8:], r.SrcPort)
		be.PutUint16(ext[10:], r.DstPort)
		ext[12] = byte(r.Proto)
		ext[13] = byte(r.State)
		be.PutUint64(ext[16:], uint64(r.Start.UnixMilli()))
		be.PutUint64(ext[24:], uint64(r.End.UnixMilli()))
		be.PutUint64(ext[32:], r.SrcBytes)
		be.PutUint64(ext[40:], r.DstBytes)
		be.PutUint32(ext[48:], r.SrcPkts)
		be.PutUint32(ext[52:], r.DstPkts)
		dst = append(dst, ext[:]...)
	}
	return dst, nil
}

// sflowRawHeader synthesizes the sampled-frame record body for r: an
// Ethernet II + IPv4 + TCP|UDP header chain reflecting the flow's
// 5-tuple, flags, and byte count.
func sflowRawHeader(r *flow.Record) []byte {
	be := binary.BigEndian
	l4 := 8 // UDP
	if r.Proto == flow.TCP {
		l4 = 20
	}
	hdrLen := 14 + 20 + l4
	padded := (hdrLen + 3) &^ 3
	body := make([]byte, 16+padded)
	be.PutUint32(body[0:], 1) // ETHERNET-ISO8023
	be.PutUint32(body[4:], uint32(min(r.SrcBytes, math.MaxUint32)))
	// stripped: zero.
	be.PutUint32(body[12:], uint32(hdrLen))

	eth := body[16:]
	// MACs zero (software exporter); EtherType IPv4.
	be.PutUint16(eth[12:], 0x0800)

	ip := eth[14:]
	ip[0] = 0x45 // IPv4, 20-byte header
	be.PutUint16(ip[2:], uint16(min(uint64(20+l4)+r.SrcBytes/max(uint64(r.SrcPkts), 1), math.MaxUint16)))
	ip[8] = 64 // TTL
	ip[9] = byte(r.Proto)
	be.PutUint32(ip[12:], uint32(r.Src))
	be.PutUint32(ip[16:], uint32(r.Dst))

	t := ip[20:]
	be.PutUint16(t[0:], r.SrcPort)
	be.PutUint16(t[2:], r.DstPort)
	if r.Proto == flow.TCP {
		t[12] = 5 << 4 // data offset
		t[13] = stateFlags(flow.TCP, r.State)
	} else {
		be.PutUint16(t[4:], uint16(8+min(r.SrcBytes, math.MaxUint16-8)))
	}
	return body
}
