package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// fields is one value of every primitive the codec has, as an encode
// step paired with the decode step that must read it back.
var fields = []struct {
	name string
	enc  func(e *Encoder)
	dec  func(d *Decoder) bool // true when the decoded value matches
}{
	{"U8", func(e *Encoder) { e.U8(0xA7) }, func(d *Decoder) bool { return d.U8() == 0xA7 }},
	{"U16", func(e *Encoder) { e.U16(0xBEEF) }, func(d *Decoder) bool { return d.U16() == 0xBEEF }},
	{"U32", func(e *Encoder) { e.U32(0xDEADBEEF) }, func(d *Decoder) bool { return d.U32() == 0xDEADBEEF }},
	{"U64", func(e *Encoder) { e.U64(math.MaxUint64 - 5) }, func(d *Decoder) bool { return d.U64() == math.MaxUint64-5 }},
	{"I64", func(e *Encoder) { e.I64(math.MinInt64 + 9) }, func(d *Decoder) bool { return d.I64() == math.MinInt64+9 }},
	{"F64", func(e *Encoder) { e.F64(-0.1) }, func(d *Decoder) bool { return d.F64() == -0.1 }},
	{"F64 NaN", func(e *Encoder) { e.F64(math.NaN()) }, func(d *Decoder) bool { return math.IsNaN(d.F64()) }},
	{"Bool true", func(e *Encoder) { e.Bool(true) }, func(d *Decoder) bool { return d.Bool() }},
	{"Bool false", func(e *Encoder) { e.Bool(false) }, func(d *Decoder) bool { return !d.Bool() }},
	{"Time", func(e *Encoder) { e.Time(time.Unix(1254819600, 123).UTC()) },
		func(d *Decoder) bool { return d.Time().Equal(time.Unix(1254819600, 123)) }},
	{"Time zero", func(e *Encoder) { e.Time(time.Time{}) }, func(d *Decoder) bool { return d.Time().IsZero() }},
	{"Dur", func(e *Encoder) { e.Dur(-90 * time.Minute) }, func(d *Decoder) bool { return d.Dur() == -90*time.Minute }},
	{"Str", func(e *Encoder) { e.Str("θ_hm") }, func(d *Decoder) bool { return d.Str() == "θ_hm" }},
	{"Str empty", func(e *Encoder) { e.Str("") }, func(d *Decoder) bool { return d.Str() == "" }},
	{"Raw", func(e *Encoder) { e.Raw([]byte{1, 2, 3}) }, func(d *Decoder) bool { return bytes.Equal(d.Take(3), []byte{1, 2, 3}) }},
	{"Splice", func(e *Encoder) { e.Splice(func(b []byte) []byte { return append(b, 9, 8) }) },
		func(d *Decoder) bool { return bytes.Equal(d.Take(2), []byte{9, 8}) }},
	{"Count", func(e *Encoder) { e.U32(2); e.U16(7); e.U16(8) },
		func(d *Decoder) bool { return d.Count(2) == 2 && d.U16() == 7 && d.U16() == 8 }},
}

func encodeFields() []byte {
	var e Encoder
	for _, f := range fields {
		f.enc(&e)
	}
	return e.Bytes()
}

func TestPrimitivesRoundTrip(t *testing.T) {
	data := encodeFields()
	var e Encoder
	e.Raw(data)
	if e.Len() != len(data) {
		t.Fatalf("Len() = %d after appending %d bytes", e.Len(), len(data))
	}
	d := NewDecoder(data)
	for _, f := range fields {
		if !f.dec(d) {
			t.Errorf("%s did not read back the value written", f.name)
		}
		if d.Err() != nil {
			t.Fatalf("%s: %v", f.name, d.Err())
		}
	}
	if d.Remaining() != 0 || len(d.Rest()) != 0 {
		t.Errorf("%d bytes left undecoded", d.Remaining())
	}
}

// Cutting the input anywhere makes the field that straddles the cut fail
// and every later read a no-op; nothing panics and the first error
// sticks.
func TestTruncationAtEveryCut(t *testing.T) {
	data := encodeFields()
	for cut := 0; cut < len(data); cut++ {
		d := NewDecoder(data[:cut])
		for _, f := range fields {
			f.dec(d)
		}
		if d.Err() == nil {
			t.Fatalf("cut at %d of %d: every field decoded from a truncated input", cut, len(data))
		}
		first := d.Err()
		d.Fail("later failure")
		if d.Err() != first {
			t.Fatalf("cut at %d: a later failure replaced the first error", cut)
		}
		if d.Rest() != nil || d.Take(1) != nil {
			t.Fatalf("cut at %d: a failed decoder still hands out bytes", cut)
		}
	}
}

// Count is what stands between a corrupt length field and an
// allocation: it admits a count only if that many minimum-size elements
// fit in the bytes that remain.
func TestCountPlausibility(t *testing.T) {
	for _, tc := range []struct {
		name      string
		count     uint32
		remaining int
		minElem   int
		ok        bool
	}{
		{"exact fit", 4, 16, 4, true},
		{"one too many", 5, 16, 4, false},
		{"zero of nothing", 0, 0, 8, true},
		{"one of nothing", 1, 0, 8, false},
		{"huge", math.MaxUint32, 64, 1, false},
		{"minElem below one counts as one", 64, 64, 0, true},
		{"minElem below one still bounded", 65, 64, -3, false},
	} {
		var e Encoder
		e.U32(tc.count)
		e.Raw(make([]byte, tc.remaining))
		d := NewDecoder(e.Bytes())
		n := d.Count(tc.minElem)
		if tc.ok && (d.Err() != nil || n != int(tc.count)) {
			t.Errorf("%s: Count = %d, err %v; want %d", tc.name, n, d.Err(), tc.count)
		}
		if !tc.ok && (d.Err() == nil || n != 0) {
			t.Errorf("%s: Count = %d, err %v; want 0 and an error", tc.name, n, d.Err())
		}
	}
}

// The decoder reads back only what the encoder can write: a boolean byte
// other than 0/1, or a zero-time flag over a nonzero count, is corrupt.
func TestNonCanonicalRejected(t *testing.T) {
	if d := NewDecoder([]byte{2}); d.Bool() || d.Err() == nil {
		t.Error("boolean byte 2 accepted")
	}
	var e Encoder
	e.U8(0)
	e.I64(5)
	if d := NewDecoder(e.Bytes()); !d.Time().IsZero() || d.Err() == nil {
		t.Error("zero-time flag with a nonzero count accepted")
	}
}

func TestStrTruncatesAtU16(t *testing.T) {
	var e Encoder
	e.Str(strings.Repeat("x", math.MaxUint16+10))
	d := NewDecoder(e.Bytes())
	if got := d.Str(); len(got) != math.MaxUint16 || d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("long string decoded to %d bytes, err %v, %d left", len(got), d.Err(), d.Remaining())
	}
}

func TestFrames(t *testing.T) {
	payload := []byte("one window's summary")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, 8, nil); err != nil {
		t.Fatal(err)
	}
	var e Encoder
	AppendFrame(&e, 7, payload)
	AppendFrame(&e, 8, nil)
	if !bytes.Equal(e.Bytes(), buf.Bytes()) {
		t.Fatal("AppendFrame and WriteFrame lay out different bytes")
	}
	stream := buf.Bytes()
	first := frameHeaderLen + len(payload) + frameTrailerLen

	t.Run("round trip then clean EOF", func(t *testing.T) {
		r := bytes.NewReader(stream)
		id, got, err := ReadFrame(r, 1<<10)
		if err != nil || id != 7 || !bytes.Equal(got, payload) {
			t.Fatalf("frame 1 = %d %q %v", id, got, err)
		}
		id, got, err = ReadFrame(r, 1<<10)
		if err != nil || id != 8 || len(got) != 0 {
			t.Fatalf("frame 2 = %d %q %v", id, got, err)
		}
		if _, _, err := ReadFrame(r, 1<<10); err != io.EOF {
			t.Fatalf("end of stream = %v, want bare io.EOF", err)
		}
	})
	t.Run("short read at every cut", func(t *testing.T) {
		for cut := 1; cut < first; cut++ {
			_, _, err := ReadFrame(bytes.NewReader(stream[:cut]), 1<<10)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	})
	t.Run("bit flip at every payload and CRC byte", func(t *testing.T) {
		for i := frameHeaderLen; i < first; i++ {
			corrupt := append([]byte(nil), stream[:first]...)
			corrupt[i] ^= 0x10
			if _, _, err := ReadFrame(bytes.NewReader(corrupt), 1<<10); err == nil || !strings.Contains(err.Error(), "CRC") {
				t.Fatalf("flip at byte %d: %v, want a CRC failure", i, err)
			}
		}
	})
	t.Run("declared length over the limit", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(stream), len(payload)-1)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("oversized frame: %v, want an implausible-payload refusal", err)
		}
	})
}

// Arbitrary bytes never panic ReadFrame, never make it allocate past the
// limit it was given, and whatever it accepts re-frames to the bytes it
// consumed.
func FuzzReadFrame(f *testing.F) {
	var e Encoder
	AppendFrame(&e, 2, []byte("payload"))
	f.Add(e.Bytes())
	f.Add(e.Bytes()[:5])
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 12
		r := bytes.NewReader(data)
		id, payload, err := ReadFrame(r, limit)
		if err != nil {
			return
		}
		if len(payload) > limit {
			t.Fatalf("accepted a %d-byte payload over the %d-byte limit", len(payload), limit)
		}
		var again Encoder
		AppendFrame(&again, id, payload)
		if consumed := len(data) - r.Len(); !bytes.Equal(again.Bytes(), data[:consumed]) {
			t.Fatalf("frame %d re-frames to different bytes", id)
		}
	})
}
