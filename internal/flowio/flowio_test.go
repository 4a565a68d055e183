package flowio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"plotters/internal/flow"
)

func sampleRecords() []flow.Record {
	t0 := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	return []flow.Record{
		{
			Src: flow.MakeIP(128, 2, 0, 1), Dst: flow.MakeIP(66, 35, 250, 150),
			SrcPort: 51234, DstPort: 80, Proto: flow.TCP,
			Start: t0, End: t0.Add(2 * time.Second),
			SrcPkts: 5, DstPkts: 7, SrcBytes: 840, DstBytes: 12000,
			State: flow.StateEstablished, Payload: []byte("GET /index.html HTTP/1.1\r\n"),
		},
		{
			Src: flow.MakeIP(128, 2, 7, 9), Dst: flow.MakeIP(87, 4, 11, 2),
			SrcPort: 6346, DstPort: 6346, Proto: flow.UDP,
			Start: t0.Add(time.Minute), End: t0.Add(time.Minute + 300*time.Millisecond),
			SrcPkts: 1, DstPkts: 0, SrcBytes: 60, DstBytes: 0,
			State: flow.StateFailed,
		},
		{
			Src: flow.MakeIP(128, 2, 200, 3), Dst: flow.MakeIP(201, 7, 8, 9),
			SrcPort: 4662, DstPort: 4662, Proto: flow.TCP,
			Start: t0.Add(2 * time.Minute), End: t0.Add(10 * time.Minute),
			SrcPkts: 900, DstPkts: 1200, SrcBytes: 4_000_000, DstBytes: 90_000,
			State: flow.StateEstablished, Payload: []byte{0xe3, 0x01, 0x00, 0x00},
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAllBinary(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Errorf("round trip mismatch:\ngot  %v\nwant %v", got, records)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAllBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4 {
		t.Errorf("empty trace length = %d, want 4 (magic only)", buf.Len())
	}
	got, err := ReadAllBinary(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("ReadAllBinary(empty) = %v, %v", got, err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := ReadAllBinary(strings.NewReader("XXXXjunk"))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	_, err = ReadAllBinary(strings.NewReader("PF"))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("truncated magic err = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAllBinary(&buf, records); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	_, err := ReadAllBinary(bytes.NewReader(trunc))
	if err == nil {
		t.Error("truncated trace should fail to decode")
	}
}

func TestBinaryRejectsInvalidRecord(t *testing.T) {
	bad := sampleRecords()[0]
	bad.End = bad.Start.Add(-time.Hour)
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Write(&bad); err == nil {
		t.Error("invalid record accepted by binary writer")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Errorf("CSV round trip mismatch:\ngot  %v\nwant %v", got, records)
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	in := "a,b,c,d,e,f,g,h,i,j,k,l,m\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Error("wrong header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCSVBadFieldErrors(t *testing.T) {
	records := sampleRecords()[:1]
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")

	corrupt := func(col int, val string) string {
		fields := strings.Split(lines[1], ",")
		fields[col] = val
		return lines[0] + "\n" + strings.Join(fields, ",") + "\n"
	}
	tests := []struct {
		name string
		col  int
		val  string
	}{
		{"bad src", 0, "999.1.1.1"},
		{"bad dst", 1, "x"},
		{"bad sport", 2, "70000"},
		{"bad dport", 3, "-1"},
		{"bad proto", 4, "gre"},
		{"bad state", 5, "weird"},
		{"bad start", 6, "yesterday"},
		{"bad end", 7, "tomorrow"},
		{"bad spkts", 8, "x"},
		{"bad dpkts", 9, "x"},
		{"bad sbytes", 10, "x"},
		{"bad dbytes", 11, "x"},
		{"bad payload", 12, "zz"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(corrupt(tt.col, tt.val))); err == nil {
				t.Error("corrupt field accepted")
			}
		})
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records); err != nil {
		t.Fatal(err)
	}
	encoded := buf.String()
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Errorf("JSONL round trip mismatch:\ngot  %v\nwant %v", got, records)
	}
	// One object per line.
	lines := strings.Count(encoded, "\n")
	if lines != len(records) {
		t.Errorf("JSONL lines = %d, want %d", lines, len(records))
	}
}

func TestJSONLEmpty(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("ReadJSONL(empty) = %v, %v", got, err)
	}
}

func TestJSONLMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"src":"bogus"}` + "\n")); err == nil {
		t.Error("bad record accepted")
	}
}

// randomRecord builds a valid record from quick-generated primitives.
func randomRecord(rng *rand.Rand) flow.Record {
	t0 := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC).
		Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
	protos := []flow.Proto{flow.TCP, flow.UDP, flow.ICMP}
	states := []flow.ConnState{flow.StateEstablished, flow.StateFailed}
	var payload []byte
	if n := rng.Intn(flow.MaxPayload + 1); n > 0 {
		payload = make([]byte, n)
		rng.Read(payload)
	}
	return flow.Record{
		Src: flow.IP(rng.Uint32()), Dst: flow.IP(rng.Uint32()),
		SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
		Proto: protos[rng.Intn(len(protos))],
		Start: t0, End: t0.Add(time.Duration(rng.Int63n(int64(time.Hour)))),
		SrcPkts: rng.Uint32(), DstPkts: rng.Uint32(),
		SrcBytes: rng.Uint64() % (1 << 40), DstBytes: rng.Uint64() % (1 << 40),
		State:   states[rng.Intn(len(states))],
		Payload: payload,
	}
}

// Property: every codec round-trips arbitrary valid records.
func TestAllCodecsRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := make([]flow.Record, int(n)%20)
		for i := range records {
			records[i] = randomRecord(rng)
		}
		var bin, csvBuf, jsonBuf bytes.Buffer
		if err := WriteAllBinary(&bin, records); err != nil {
			return false
		}
		if err := WriteCSV(&csvBuf, records); err != nil {
			return false
		}
		if err := WriteJSONL(&jsonBuf, records); err != nil {
			return false
		}
		b, err := ReadAllBinary(&bin)
		if err != nil || !recordsEqual(b, records) {
			return false
		}
		c, err := ReadCSV(&csvBuf)
		if err != nil || !recordsEqual(c, records) {
			return false
		}
		j, err := ReadJSONL(&jsonBuf)
		if err != nil || !recordsEqual(j, records) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func recordsEqual(a, b []flow.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Payload) == 0 && len(y.Payload) == 0 {
			x.Payload, y.Payload = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func TestBinaryReaderStreaming(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAllBinary(&buf, records); err != nil {
		t.Fatal(err)
	}
	br := NewBinaryReader(&buf)
	for i := range records {
		rec, err := br.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Src != records[i].Src {
			t.Errorf("record %d src = %v", i, rec.Src)
		}
	}
	if _, err := br.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after last record err = %v, want EOF", err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	records := sampleRecords()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bw := NewBinaryWriter(io.Discard)
		for j := range records {
			if err := bw.Write(&records[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	var buf bytes.Buffer
	records := sampleRecords()
	for i := 0; i < 1000; i++ {
		for j := range records {
			rec := records[j]
			if err := (&rec).Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := WriteAllBinary(&buf, records); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAllBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamingReadersMatchBatch(t *testing.T) {
	records := sampleRecords()
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonBuf, records); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    Reader
	}{
		{"csv", NewCSVReader(bytes.NewReader(csvBuf.Bytes()))},
		{"jsonl", NewJSONLReader(bytes.NewReader(jsonBuf.Bytes()))},
	} {
		var got []flow.Record
		for {
			rec, err := tc.r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = append(got, rec)
		}
		if !recordsEqual(got, records) {
			t.Errorf("%s: streaming read differs from batch", tc.name)
		}
	}
}

func TestCopyConvertsFormats(t *testing.T) {
	records := sampleRecords()
	var bin bytes.Buffer
	if err := WriteAllBinary(&bin, records); err != nil {
		t.Fatal(err)
	}
	// binary -> CSV -> JSONL -> binary round trip via streaming Copy.
	var csvBuf bytes.Buffer
	n, err := Copy(NewCSVWriter(&csvBuf), NewBinaryReader(bytes.NewReader(bin.Bytes())))
	if err != nil || n != len(records) {
		t.Fatalf("binary->csv: n=%d err=%v", n, err)
	}
	var jsonBuf bytes.Buffer
	if _, err := Copy(NewJSONLWriter(&jsonBuf), NewCSVReader(bytes.NewReader(csvBuf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	var bin2 bytes.Buffer
	if _, err := Copy(NewBinaryWriter(&bin2), NewJSONLReader(bytes.NewReader(jsonBuf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllBinary(bytes.NewReader(bin2.Bytes()))
	if err != nil || !recordsEqual(got, records) {
		t.Errorf("round-the-world conversion lost data: %v", err)
	}
}

func TestCSVWriterEmptyFlushWritesHeader(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil || len(got) != 0 {
		t.Errorf("empty CSV trace: %v, %v", got, err)
	}
}

func TestCSVReaderEmptyInput(t *testing.T) {
	// Streaming callers (Copy, the CLIs) read an input without even a
	// header as a zero-record trace; a whole-trace ReadCSV refuses it.
	if _, err := NewCSVReader(strings.NewReader("")).Next(); !errors.Is(err, io.EOF) {
		t.Errorf("streaming empty CSV input: %v, want an error wrapping io.EOF", err)
	}
	if n, err := Copy(NewBinaryWriter(io.Discard), NewCSVReader(strings.NewReader(""))); n != 0 || err != nil {
		t.Errorf("Copy of empty CSV input: %d records, %v", n, err)
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("ReadCSV accepted empty input")
	}
}
