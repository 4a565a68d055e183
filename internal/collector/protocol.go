// Package collector is the system's live network I/O boundary: it
// decodes flow-export datagrams — the telemetry a border router or a
// software exporter emits about every flow it forwards — into
// flow.Records and pumps them off a UDP socket into the continuous
// detection engine.
//
// Everything protocol-specific sits behind one table, Protocols, with
// one row per export protocol: NetFlow v5 (v5.go: fixed 24-byte header,
// 48-byte records, ≤30 per packet), NetFlow v9 (v9.go: template-based,
// unknown fields skipped by length), IPFIX (ipfix.go) and sFlow v5
// (sflow.go). A row must provide Sniff (does a datagram open like this
// protocol — rows are mutually exclusive), Decode (one datagram into
// records plus a by-value Packet: sequence number, the stream it
// numbers, template/skip counts), KeepPartial and SeqCountsFlows (the
// two policies the protocols disagree on). A row the software exporter
// can speak also provides Append (records into one datagram) and Frame
// (one datagram back off a concatenated stream), which is all that
// flowio's packet trace formats and cmd/flowreplay need. NetFlow v9 has
// neither: a v9 data FlowSet means nothing without a template announced
// earlier in the same session, so there is no self-contained datagram
// to write or to cut out of a file. Adding a protocol is adding a row.
//
// The Collector itself (Listen/Run) is shaped for production ingest:
// the socket reader only reads and enqueues, a bounded queue drops on
// overflow rather than ever blocking the reader, a worker pool decodes,
// per-exporter sequence accounting measures export loss, and malformed
// or unknown-version packets are counted and skipped, never fatal.
package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"

	"plotters/internal/flow"
)

// Packet is what a row's Decode reports about one datagram besides its
// records. A plain value: nothing on the socket→Handler path boxes a
// protocol header into an interface.
type Packet struct {
	// Stream tells apart independently numbered streams behind one
	// exporter address: v5 engine_type<<8|engine_id, v9 source ID, IPFIX
	// observation domain, sFlow sub-agent (low 16 bits each).
	Stream uint16
	// Sequence is the header's sequence number, in the row's unit.
	Sequence uint32
	// Templates, MissingTemplates and Evicted are the template-cache
	// outcomes (learned, data sets skipped for want of one, displaced by
	// the per-exporter bound); Skipped counts samples and records of
	// kinds the decoder does not handle.
	Templates, MissingTemplates, Evicted, Skipped int
}

// Protocol is one row of Protocols.
type Protocol struct {
	// Name is the row's name on command lines ("-emit v5").
	Name string
	// Sniff reports whether pkt opens like this protocol.
	Sniff func(pkt []byte) bool
	// Decode appends pkt's records to dst. templates and exporter scope
	// the template protocols' cache; arrival stamps records of protocols
	// that carry no clock. On error the returned slice still holds what
	// decoded before it.
	Decode func(templates *TemplateCache, exporter string, pkt []byte, arrival time.Time, dst []flow.Record) (Packet, []flow.Record, error)
	// KeepPartial says whether the records decoded ahead of an error are
	// delivered (v9, IPFIX, sFlow: sets and samples stand alone) or the
	// whole packet is discarded (v5: its count and length must agree).
	KeepPartial bool
	// SeqCountsFlows says what the sequence number counts: flow records
	// (v5, IPFIX — a gap is an exact lost-flow count) or packets (v9,
	// sFlow).
	SeqCountsFlows bool
	// Append encodes records as one datagram numbered seq, appended to
	// dst. Nil when the protocol has no self-contained datagram.
	Append func(dst []byte, records []flow.Record, seq uint32) ([]byte, error)
	// Frame reads exactly one datagram off a stream of concatenated ones
	// into buf's storage, following the protocol's own length fields.
	// io.EOF means the stream ended on a datagram boundary. Nil exactly
	// when Append is.
	Frame func(r io.Reader, buf []byte) ([]byte, error)
}

// SeqStep is how far a packet of n records moves the sequence number —
// the exporter's increment and the collector's expectation alike.
func (p *Protocol) SeqStep(n int) uint32 {
	if p.SeqCountsFlows {
		return uint32(n)
	}
	return 1
}

// Protocols is the table of export protocols. Rows 0 and 1 are the two
// whose sequence state the checkpoint wire format carries (see
// SequenceState); new rows go at the end.
var Protocols = [...]Protocol{
	{Name: "v5", Sniff: func(pkt []byte) bool { return version16(pkt, 5) }, Decode: decodeV5,
		SeqCountsFlows: true, Append: AppendV5, Frame: frameV5},
	{Name: "v9", Sniff: func(pkt []byte) bool { return version16(pkt, 9) }, Decode: decodeV9,
		KeepPartial: true},
	{Name: "ipfix", Sniff: func(pkt []byte) bool { return version16(pkt, 10) }, Decode: decodeIPFIX,
		KeepPartial: true, SeqCountsFlows: true, Append: AppendIPFIX, Frame: frameIPFIX},
	// sFlow leads with a u32 version, so its first u16 is 0 and cannot
	// collide with a NetFlow version.
	{Name: "sflow", Sniff: func(pkt []byte) bool { return len(pkt) >= 4 && binary.BigEndian.Uint32(pkt) == 5 }, Decode: decodeSFlow,
		KeepPartial: true, Append: AppendSFlow, Frame: frameSFlow},
}

// version16 reports whether pkt leads with the 16-bit version v.
func version16(pkt []byte, v uint16) bool {
	return len(pkt) >= 2 && binary.BigEndian.Uint16(pkt) == v
}

// ExportProtocol returns the row called name if the software exporter
// can speak it; the error lists the rows it can.
func ExportProtocol(name string) (*Protocol, error) {
	for i := range Protocols {
		if p := &Protocols[i]; p.Name == name && p.Append != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("collector: no export protocol %q (have %s)", name, ExportProtocolNames())
}

// ExportProtocolNames lists the rows ExportProtocol accepts, for help
// strings.
func ExportProtocolNames() string {
	var names []string
	for i := range Protocols {
		if Protocols[i].Append != nil {
			names = append(names, Protocols[i].Name)
		}
	}
	return strings.Join(names, ", ")
}

// maxFrameChunk bounds what one length field in a packet stream may
// claim, so a hostile file cannot make a Frame allocate more than this
// beyond the bytes it has actually read. IPFIX messages are ≤64 KiB and
// v5 packets ≤1464 bytes; the bound bites only on corrupt input.
const maxFrameChunk = 1 << 20

// readChunk appends the next n bytes of r to pkt. A stream that ends
// anywhere but ahead of a packet's first byte is ErrTruncated; only
// that clean boundary surfaces as io.EOF.
func readChunk(r io.Reader, pkt []byte, n int) ([]byte, error) {
	if n < 0 || n > maxFrameChunk {
		return pkt, fmt.Errorf("%w: a length field claims %d bytes", ErrCorrupt, n)
	}
	off := len(pkt)
	if need := off + n; need > cap(pkt) {
		// Double, so a packet of many small chunks is copied a constant
		// number of times, but never by more than maxFrameChunk beyond
		// the bytes actually read.
		pkt = append(make([]byte, 0, max(need, min(2*off, off+maxFrameChunk))), pkt...)
	}
	got, err := io.ReadFull(r, pkt[off:off+n])
	switch {
	case err == nil:
		return pkt[:off+n], nil
	case err == io.EOF && off == 0:
		return pkt, io.EOF
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		err = ErrTruncated
	}
	return pkt, fmt.Errorf("%w: stream stops %d bytes into a packet", err, off+got)
}
