package flowio

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
)

// The fuzz targets pin two codec properties on arbitrary input bytes:
// decoders never panic (they return an error or records, nothing else),
// and whatever they do decode survives an encode→decode round trip.
//
// The text codecs validate on decode, so everything they accept must
// round-trip. The binary decoder deliberately does not validate (the
// fast path trusts its own writer), so its round trip is conditional on
// the re-encode accepting the records.

// fuzzSeeds returns a canonical encoding of sampleRecords plus
// truncated and bit-flipped variants — mutation starting points that
// keep the fuzzer near the interesting decode paths.
func fuzzSeeds(encode func(*bytes.Buffer)) [][]byte {
	var buf bytes.Buffer
	encode(&buf)
	full := buf.Bytes()
	truncated := full[:len(full)*2/3]
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0xff
	return [][]byte{full, truncated, corrupt, {}, []byte("garbage\n")}
}

// decodeAll drains r, returning the records decoded before the first
// error (io.EOF or otherwise).
func decodeAll(r Reader) []flow.Record {
	var out []flow.Record
	for {
		rec, err := r.Next()
		if err != nil {
			return out
		}
		out = append(out, rec)
	}
}

// equivalent reports whether two decoded traces carry the same records.
// Text-codec timestamps keep their zone offset on first decode but are
// normalized to UTC on encode, so times compare by instant, not by
// representation.
func equivalent(a, b []flow.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Start.Equal(y.Start) || !x.End.Equal(y.End) {
			return false
		}
		x.Start, x.End = time.Time{}, time.Time{}
		y.Start, y.End = time.Time{}, time.Time{}
		if len(x.Payload) == 0 {
			x.Payload = nil
		}
		if len(y.Payload) == 0 {
			y.Payload = nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// formattable reports whether every timestamp survives RFC 3339
// re-formatting: a decoded offset time whose UTC equivalent leaves
// years 1–9999 (e.g. 9999-12-31T23:00:00-05:00) formats to a string
// the layout can no longer parse, which is a limitation of the
// timestamp syntax, not a codec bug.
func formattable(records []flow.Record) bool {
	for i := range records {
		for _, ts := range []time.Time{records[i].Start, records[i].End} {
			if y := ts.UTC().Year(); y < 1 || y > 9999 {
				return false
			}
		}
	}
	return true
}

func FuzzBinaryDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(func(buf *bytes.Buffer) {
		if err := WriteAllBinary(buf, sampleRecords()); err != nil {
			f.Fatal(err)
		}
	}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeAll(NewBinaryReader(bytes.NewReader(data)))
		if len(records) == 0 {
			return
		}
		var out bytes.Buffer
		bw := NewBinaryWriter(&out)
		for i := range records {
			if err := bw.Write(&records[i]); err != nil {
				// The binary decoder trusts its writer and skips
				// validation, so arbitrary bytes can decode to records
				// a validating encoder refuses. That is fine; only
				// accepted records must round-trip.
				return
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAllBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(again, records) {
			t.Errorf("round trip changed records:\nfirst  %v\nsecond %v", records, again)
		}
	})
}

func FuzzCSVDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(func(buf *bytes.Buffer) {
		if err := WriteCSV(buf, sampleRecords()); err != nil {
			f.Fatal(err)
		}
	}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeAll(NewCSVReader(bytes.NewReader(data)))
		if len(records) == 0 || !formattable(records) {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, records); err != nil {
			t.Fatalf("re-encoding validated records: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !equivalent(records, again) {
			t.Errorf("round trip changed records:\nfirst  %v\nsecond %v", records, again)
		}
	})
}

func FuzzJSONLDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(func(buf *bytes.Buffer) {
		if err := WriteJSONL(buf, sampleRecords()); err != nil {
			f.Fatal(err)
		}
	}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeAll(NewJSONLReader(bytes.NewReader(data)))
		if len(records) == 0 || !formattable(records) {
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, records); err != nil {
			t.Fatalf("re-encoding validated records: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !equivalent(records, again) {
			t.Errorf("round trip changed records:\nfirst  %v\nsecond %v", records, again)
		}
	})
}

// The packet-stream readers parse untrusted files by the protocols' own
// length fields. Arbitrary bytes through every packet format's Frame +
// Decode must never panic, and a length field may never make the reader
// hold more than 1 MiB (the per-field cap) beyond the bytes it was
// actually given.
func FuzzPacketStreamDecode(f *testing.F) {
	var packetFormats []*Format
	for i := range Formats {
		format := &Formats[i]
		if _, ok := format.NewWriter(io.Discard).(*PacketWriter); !ok {
			continue
		}
		packetFormats = append(packetFormats, format)
		for _, seed := range fuzzSeeds(func(buf *bytes.Buffer) {
			if err := WriteAll(format.NewWriter(buf), sampleRecords()); err != nil {
				f.Fatal(err)
			}
		}) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range packetFormats {
			pr := format.NewReader(bytes.NewReader(data)).(*PacketReader)
			for {
				rec, err := pr.Next()
				if held := cap(pr.pkt); held > len(data)+1<<20 {
					t.Fatalf("%s: %d input bytes grew the packet buffer to %d", format.Name, len(data), held)
				}
				if err != nil {
					break
				}
				if rec.End.Before(rec.Start) {
					t.Fatalf("%s: decoded a record that ends before it starts", format.Name)
				}
			}
		}
	})
}
