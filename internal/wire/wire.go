// Package wire holds the little-endian binary codec and the CRC-framed
// section format shared by everything in this repository that puts
// state on disk or on the network: checkpoint snapshots, the record
// WAL's sibling framing, and the shard→coordinator summary protocol of
// internal/dist. It began life as the checkpoint package's private
// codec; the distributed pipeline reuses it as its wire format, so the
// primitives live here once.
//
// The Encoder appends to a byte slice; the Decoder consumes one with a
// sticky error, so codecs read field after field and check once at the
// end. Every count the Decoder reads is validated against the bytes
// remaining before anything is allocated — a bit-flipped length in a
// hostile or corrupt input must cost an error, never memory.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Encoder appends little-endian fields to a growing byte slice.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.b }

// Len returns the encoded length so far.
func (e *Encoder) Len() int { return len(e.b) }

// Raw appends p verbatim.
func (e *Encoder) Raw(p []byte) { e.b = append(e.b, p...) }

// Splice hands the underlying buffer to fn to append into directly and
// keeps the result — the escape hatch for external append-style codecs
// (flowio.AppendRecord) that would otherwise force a copy per element.
func (e *Encoder) Splice(fn func(b []byte) []byte) { e.b = fn(e.b) }

func (e *Encoder) U8(v uint8)   { e.b = append(e.b, v) }
func (e *Encoder) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) {
	e.U64(math.Float64bits(v))
}

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Time encodes a timestamp as a zero flag plus UnixNano: the zero
// time.Time is not representable as a nanosecond count, and state
// structs use it as a meaningful "never" sentinel.
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.U8(0)
		e.I64(0)
		return
	}
	e.U8(1)
	e.I64(t.UnixNano())
}

func (e *Encoder) Dur(d time.Duration) { e.I64(int64(d)) }

func (e *Encoder) Str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.U16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// Decoder consumes a byte slice with a sticky error.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps data for decoding. The slice is consumed in place,
// not copied.
func NewDecoder(data []byte) *Decoder { return &Decoder{b: data} }

// Err returns the first decoding failure, nil if none.
func (d *Decoder) Err() error { return d.err }

// Fail records a decoding failure; only the first one sticks.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Take consumes n bytes, failing on underrun.
func (d *Decoder) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.Fail("wire: truncated: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *Decoder) U8() uint8 {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) U16() uint16 {
	b := d.Take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *Decoder) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Decoder) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Rest returns the unconsumed bytes without consuming them, for
// external decoders that report how many bytes they used; pair with a
// Take of that many to advance.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.b
}

func (d *Decoder) I64() int64     { return int64(d.U64()) }
func (d *Decoder) F64() float64   { return math.Float64frombits(d.U64()) }
func (d *Decoder) Remaining() int { return len(d.b) }

// Bool accepts only the two bytes the Encoder writes, so that whatever
// decodes re-encodes to the same bytes.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("wire: boolean byte %d is neither 0 nor 1", v)
	}
	return v == 1
}

// Time is as strict as Bool: a zero flag carries a zero count.
func (d *Decoder) Time() time.Time {
	set := d.Bool()
	ns := d.I64()
	if !set && ns != 0 {
		d.Fail("wire: zero-time flag with a nonzero nanosecond count %d", ns)
	}
	if d.err != nil || !set {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

func (d *Decoder) Dur() time.Duration { return time.Duration(d.I64()) }

func (d *Decoder) Str() string {
	n := int(d.U16())
	b := d.Take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Count reads a u32 element count and validates it against the bytes
// remaining, given the minimum encoded size of one element. The
// returned count is safe to allocate for.
func (d *Decoder) Count(minElem int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minElem < 1 {
		minElem = 1
	}
	if n < 0 || n > len(d.b)/minElem {
		d.Fail("wire: implausible element count %d for %d remaining bytes", n, len(d.b))
		return 0
	}
	return n
}

// --- CRC-framed sections ---
//
// A frame is (u16 id, u32 length, payload, u32 CRC32-IEEE of the
// payload). Checkpoint snapshots lay frames end to end inside a file;
// the distributed protocol lays the same frames end to end on a TCP
// stream. Both sides reject a failed CRC, an implausible length, and
// an id they do not understand — the reader never guesses.

// frameHeaderLen is the id + length prefix; frameTrailerLen the CRC.
const (
	frameHeaderLen  = 6
	frameTrailerLen = 4
)

// AppendFrame appends one framed section to the encoder.
func AppendFrame(e *Encoder, id uint16, payload []byte) {
	e.U16(id)
	e.U32(uint32(len(payload)))
	e.Raw(payload)
	e.U32(crc32.ChecksumIEEE(payload))
}

// WriteFrame writes one framed section to w in a single Write call (so
// a frame is never interleaved with another writer's bytes on a shared
// connection guarded by the caller's lock).
func WriteFrame(w io.Writer, id uint16, payload []byte) error {
	var e Encoder
	e.b = make([]byte, 0, frameHeaderLen+len(payload)+frameTrailerLen)
	AppendFrame(&e, id, payload)
	_, err := w.Write(e.Bytes())
	return err
}

// ReadFrame reads one framed section from r, verifying the CRC.
// Payloads larger than maxPayload are rejected before allocation — a
// corrupt or hostile length prefix costs an error, not memory. A clean
// EOF at a frame boundary is returned as io.EOF; EOF inside a frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxPayload int) (id uint16, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	id = binary.LittleEndian.Uint16(hdr[0:2])
	n := int(binary.LittleEndian.Uint32(hdr[2:6]))
	if n < 0 || n > maxPayload {
		return 0, nil, fmt.Errorf("wire: frame %d declares an implausible %d-byte payload (limit %d)", id, n, maxPayload)
	}
	buf := make([]byte, n+frameTrailerLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: reading %d-byte frame %d: %w", n, id, err)
	}
	payload = buf[:n]
	crc := binary.LittleEndian.Uint32(buf[n:])
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, fmt.Errorf("wire: frame %d failed its CRC check — the stream is corrupt", id)
	}
	return id, payload, nil
}
