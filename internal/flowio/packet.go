package flowio

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"plotters/internal/collector"
	"plotters/internal/flow"
)

// PacketWriter packs records into valid export packets of one protocol
// (a row of collector.Protocols with an Append), up to 30 per packet,
// issuing exactly one underlying Write per packet. That single-write
// contract is the point: handed a net.Conn, every packet leaves as one
// datagram a real collector accepts — the bridge that lets synthesized
// traces replay over loopback as live exporter traffic. Handed a file,
// the result is a stream of concatenated packets, which PacketReader
// cuts apart again by the protocol's own framing.
//
// Each format is lossy where its protocol is (see the row's Append):
// all floor timestamps to the millisecond and drop Payload; NetFlow v5
// also saturates SrcPkts/SrcBytes at 2³²−1 and drops the responder
// counters. The header sequence runs across the writer's lifetime in
// the protocol's native unit, so a reading collector sees a gap-free
// exporter.
type PacketWriter struct {
	w     io.Writer
	proto *collector.Protocol
	batch []flow.Record
	pkt   []byte
	seq   uint32
}

// NewPacketWriter wraps w. The v5 packet cap applies to every protocol,
// so all packet formats chunk a stream identically.
func NewPacketWriter(w io.Writer, proto *collector.Protocol) *PacketWriter {
	return &PacketWriter{w: w, proto: proto, batch: make([]flow.Record, 0, collector.V5MaxRecords)}
}

// Write buffers one record, emitting a packet when a full one is ready.
func (pw *PacketWriter) Write(r *flow.Record) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("flowio: refusing to encode invalid record: %w", err)
	}
	pw.batch = append(pw.batch, *r)
	if len(pw.batch) == collector.V5MaxRecords {
		return pw.Flush()
	}
	return nil
}

// Flush encodes any buffered records as one packet and writes it in one
// call. An empty trace writes nothing — a packet stream has no file
// header, only packets.
func (pw *PacketWriter) Flush() error {
	if len(pw.batch) == 0 {
		return nil
	}
	pkt, err := pw.proto.Append(pw.pkt[:0], pw.batch, pw.seq)
	if err != nil {
		return fmt.Errorf("flowio: encoding %s packet: %w", pw.proto.Name, err)
	}
	pw.pkt = pkt
	if _, err := pw.w.Write(pkt); err != nil {
		return fmt.Errorf("flowio: writing %s packet: %w", pw.proto.Name, err)
	}
	pw.seq += pw.proto.SeqStep(len(pw.batch))
	pw.batch = pw.batch[:0]
	return nil
}

// PacketReader streams records from a concatenation of one protocol's
// export packets (a PacketWriter trace, or a capture of real exporter
// datagrams). The protocols frame themselves — the row's Frame reads
// exactly one packet — so no container wraps the stream, and each
// packet then decodes as if it had arrived on the socket. Template
// state is kept across packets, so IPFIX traces that announce templates
// once up front decode too. Records of protocols without a clock of
// their own (raw-header sFlow) carry zero timestamps: a file has no
// arrival time to offer.
type PacketReader struct {
	meter
	r         *bufio.Reader
	proto     *collector.Protocol
	templates *collector.TemplateCache
	pkt       []byte
	pending   []flow.Record
	idx       int
	packets   int
}

// NewPacketReader wraps r; format names the reader's metrics.
func NewPacketReader(r io.Reader, format string, proto *collector.Protocol) *PacketReader {
	pr := &PacketReader{proto: proto, templates: collector.NewTemplateCache()}
	pr.r = bufio.NewReaderSize(pr.meter.wrap(format, r), 1<<16)
	return pr
}

// Next returns the next record, or io.EOF at end of trace. A trace
// ending mid-packet is an error, not EOF.
func (pr *PacketReader) Next() (flow.Record, error) {
	// A packet may carry zero records (some exporters heartbeat).
	for pr.idx == len(pr.pending) {
		if err := pr.readPacket(); err != nil {
			return flow.Record{}, err
		}
	}
	rec := pr.pending[pr.idx]
	pr.idx++
	pr.records.Add(1)
	return rec, nil
}

// readPacket frames and decodes the next packet into the pending
// buffer.
func (pr *PacketReader) readPacket() error {
	pr.pending, pr.idx = pr.pending[:0], 0
	var err error
	if pr.pkt, err = pr.proto.Frame(pr.r, pr.pkt); err == io.EOF {
		return io.EOF // clean packet boundary
	}
	if err == nil {
		_, pr.pending, err = pr.proto.Decode(pr.templates, "trace", pr.pkt, time.Time{}, pr.pending)
	}
	if err != nil {
		pr.pending = pr.pending[:0]
		return fmt.Errorf("flowio: %s trace packet %d: %w", pr.format, pr.packets, err)
	}
	pr.packets++
	return nil
}
