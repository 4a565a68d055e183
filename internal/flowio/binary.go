// Package flowio reads and writes flow-record traces in the formats of
// one table, Formats: a compact streaming binary format (the native
// trace format of this project's tools), CSV, JSON Lines, and packet
// streams in the wire formats real exporters speak (see PacketWriter).
// All codecs stream — traces can be far larger than memory, as they
// would be at a real network border.
package flowio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"plotters/internal/flow"
)

// magic identifies the binary trace format, versioned in the last byte.
var magic = [4]byte{'P', 'F', 'L', '1'}

// ErrBadMagic is returned when a binary trace does not begin with the
// expected format marker.
var ErrBadMagic = errors.New("flowio: not a binary flow trace (bad magic)")

// binaryHeaderSize is the fixed-size portion of one encoded record:
// src(4) dst(4) sport(2) dport(2) proto(1) state(1) start(8) end(8)
// spkts(4) dpkts(4) sbytes(8) dbytes(8) payloadLen(1).
const binaryHeaderSize = 4 + 4 + 2 + 2 + 1 + 1 + 8 + 8 + 4 + 4 + 8 + 8 + 1

// BinaryWriter streams records to an io.Writer in binary form.
type BinaryWriter struct {
	w       *bufio.Writer
	started bool
	buf     [binaryHeaderSize + flow.MaxPayload]byte
}

// NewBinaryWriter wraps w. The format magic is emitted before the first
// record.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// AppendRecord encodes one record in the binary trace's record layout
// (fixed header + payload, no stream magic), appending to dst. This is
// the reusable single-record codec: the trace writer, the checkpoint
// WAL, and snapshot reorder-buffer serialization all share it so their
// byte layouts cannot drift.
func AppendRecord(dst []byte, r *flow.Record) []byte {
	var b [binaryHeaderSize]byte
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(r.Src))
	le.PutUint32(b[4:], uint32(r.Dst))
	le.PutUint16(b[8:], r.SrcPort)
	le.PutUint16(b[10:], r.DstPort)
	b[12] = byte(r.Proto)
	b[13] = byte(r.State)
	le.PutUint64(b[14:], uint64(r.Start.UnixNano()))
	le.PutUint64(b[22:], uint64(r.End.UnixNano()))
	le.PutUint32(b[30:], r.SrcPkts)
	le.PutUint32(b[34:], r.DstPkts)
	le.PutUint64(b[38:], r.SrcBytes)
	le.PutUint64(b[46:], r.DstBytes)
	b[54] = byte(len(r.Payload))
	dst = append(dst, b[:]...)
	return append(dst, r.Payload...)
}

// decodeHeader decodes one record's fixed header: the record without
// its payload, and the payload's length, checked against the cap. The
// array pointer spares every field its bounds check.
func decodeHeader(b *[binaryHeaderSize]byte) (flow.Record, int, error) {
	le := binary.LittleEndian
	r := flow.Record{
		Src:      flow.IP(le.Uint32(b[0:])),
		Dst:      flow.IP(le.Uint32(b[4:])),
		SrcPort:  le.Uint16(b[8:]),
		DstPort:  le.Uint16(b[10:]),
		Proto:    flow.Proto(b[12]),
		State:    flow.ConnState(b[13]),
		Start:    time.Unix(0, int64(le.Uint64(b[14:]))).UTC(),
		End:      time.Unix(0, int64(le.Uint64(b[22:]))).UTC(),
		SrcPkts:  le.Uint32(b[30:]),
		DstPkts:  le.Uint32(b[34:]),
		SrcBytes: le.Uint64(b[38:]),
		DstBytes: le.Uint64(b[46:]),
	}
	pl := int(b[54])
	if pl > flow.MaxPayload {
		return flow.Record{}, 0, fmt.Errorf("flowio: payload length %d exceeds cap", pl)
	}
	return r, pl, nil
}

// DecodeRecord decodes one record produced by AppendRecord from the
// front of b, returning the bytes consumed.
func DecodeRecord(b []byte) (flow.Record, int, error) {
	if len(b) < binaryHeaderSize {
		return flow.Record{}, 0, fmt.Errorf("flowio: record truncated: %d of %d header bytes", len(b), binaryHeaderSize)
	}
	r, pl, err := decodeHeader((*[binaryHeaderSize]byte)(b))
	if err != nil {
		return flow.Record{}, 0, err
	}
	n := binaryHeaderSize + pl
	if len(b) < n {
		return flow.Record{}, 0, fmt.Errorf("flowio: record truncated: %d of %d payload bytes", len(b)-binaryHeaderSize, pl)
	}
	if pl > 0 {
		r.Payload = append([]byte(nil), b[binaryHeaderSize:n]...)
	}
	return r, n, nil
}

// Write appends one record.
func (bw *BinaryWriter) Write(r *flow.Record) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("flowio: refusing to encode invalid record: %w", err)
	}
	if !bw.started {
		if _, err := bw.w.Write(magic[:]); err != nil {
			return fmt.Errorf("flowio: writing magic: %w", err)
		}
		bw.started = true
	}
	if _, err := bw.w.Write(AppendRecord(bw.buf[:0], r)); err != nil {
		return fmt.Errorf("flowio: writing record: %w", err)
	}
	return nil
}

// Flush drains buffered output to the underlying writer.
func (bw *BinaryWriter) Flush() error {
	if !bw.started {
		// An empty trace still carries the magic so readers can identify it.
		if _, err := bw.w.Write(magic[:]); err != nil {
			return fmt.Errorf("flowio: writing magic: %w", err)
		}
		bw.started = true
	}
	if err := bw.w.Flush(); err != nil {
		return fmt.Errorf("flowio: flushing: %w", err)
	}
	return nil
}

// BinaryReader streams records from an io.Reader produced by
// BinaryWriter.
type BinaryReader struct {
	meter
	r       *bufio.Reader
	started bool
	buf     [binaryHeaderSize]byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	br := &BinaryReader{}
	br.r = bufio.NewReaderSize(br.meter.wrap("binary", r), 1<<16)
	return br
}

// Next returns the next record, or io.EOF at end of trace.
func (br *BinaryReader) Next() (flow.Record, error) {
	if !br.started {
		var got [4]byte
		if _, err := io.ReadFull(br.r, got[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return flow.Record{}, fmt.Errorf("flowio: trace truncated before magic: %w", ErrBadMagic)
			}
			return flow.Record{}, fmt.Errorf("flowio: reading magic: %w", err)
		}
		if got != magic {
			return flow.Record{}, ErrBadMagic
		}
		br.started = true
	}
	if _, err := io.ReadFull(br.r, br.buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return flow.Record{}, io.EOF
		}
		return flow.Record{}, fmt.Errorf("flowio: reading record: %w", err)
	}
	r, n, err := decodeHeader(&br.buf)
	if err != nil {
		return flow.Record{}, err
	}
	if n > 0 {
		r.Payload = make([]byte, n)
		if _, err := io.ReadFull(br.r, r.Payload); err != nil {
			return flow.Record{}, fmt.Errorf("flowio: reading payload: %w", err)
		}
	}
	br.records.Add(1)
	return r, nil
}

// ReadAllBinary decodes an entire binary trace into memory.
func ReadAllBinary(r io.Reader) ([]flow.Record, error) { return ReadAll(NewBinaryReader(r)) }

// WriteAllBinary encodes records to w and flushes.
func WriteAllBinary(w io.Writer, records []flow.Record) error {
	return WriteAll(NewBinaryWriter(w), records)
}
