package flowio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// spreadRecords clones base out to n records with shifted times, enough
// to cross the 30-records-per-packet boundary a few times.
func spreadRecords(base []flow.Record, n int) []flow.Record {
	var records []flow.Record
	for i := 0; len(records) < n; i++ {
		r := base[i%len(base)]
		r.Start = r.Start.Add(time.Duration(i) * time.Second)
		r.End = r.End.Add(time.Duration(i) * time.Second)
		records = append(records, r)
	}
	return records
}

// writeRecorder notes where each Write call ended — the packet
// boundaries of a packet stream, and the one-datagram-per-packet
// contract a UDP conn depends on.
type writeRecorder struct {
	bytes.Buffer
	ends []int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	w.ends = append(w.ends, w.Len())
	return n, err
}

// carried is what each format keeps of a record: nothing is lost by the
// native and text formats; every packet format floors times to the
// millisecond and drops the payload, and NetFlow v5 has no
// responder-side counters either.
var carried = map[string]func(*flow.Record){
	"binary": func(*flow.Record) {},
	"csv":    func(*flow.Record) {},
	"jsonl":  func(*flow.Record) {},
	"netflow": func(r *flow.Record) {
		exportLoss(r)
		r.DstPkts, r.DstBytes = 0, 0
	},
	"ipfix": exportLoss,
	"sflow": exportLoss,
}

func exportLoss(r *flow.Record) {
	r.Start, r.End = r.Start.Truncate(time.Millisecond), r.End.Truncate(time.Millisecond)
	r.Payload = nil
}

// One table over Formats: every behaviour a trace format owes its
// callers, checked for every row.
func TestFormats(t *testing.T) {
	for i := range Formats {
		f := &Formats[i]
		lose, ok := carried[f.Name]
		if !ok {
			t.Fatalf("row %q: say in carried what the format keeps of a record", f.Name)
		}
		// 70 records cross two packet boundaries; the first carries what
		// the lossy formats cannot: sub-millisecond time (with payload
		// and responder counters, from sampleRecords).
		records := spreadRecords(sampleRecords(), 70)
		records[0].Start = records[0].Start.Add(123 * time.Microsecond)
		want := append([]flow.Record(nil), records...)
		for j := range want {
			lose(&want[j])
		}
		encode := func(t *testing.T, records []flow.Record) *writeRecorder {
			t.Helper()
			var rec writeRecorder
			if err := WriteAll(f.NewWriter(&rec), records); err != nil {
				t.Fatal(err)
			}
			return &rec
		}
		_, packets := f.NewWriter(io.Discard).(*PacketWriter)

		t.Run(f.Name+"/round trip", func(t *testing.T) {
			enc := encode(t, records)
			got, err := ReadAll(f.NewReader(bytes.NewReader(enc.Bytes())))
			if err != nil {
				t.Fatal(err)
			}
			if !recordsEqual(got, want) {
				t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, want)
			}
			// What a format decodes it re-encodes to the same bytes, through
			// the streaming Copy that format conversion uses.
			var again bytes.Buffer
			n, err := Copy(f.NewWriter(&again), f.NewReader(bytes.NewReader(enc.Bytes())))
			if err != nil || n != len(records) || !bytes.Equal(again.Bytes(), enc.Bytes()) {
				t.Errorf("Copy re-encoded %d records to %d bytes (err %v), want %d to %d", n, again.Len(), err, len(records), enc.Len())
			}
		})

		t.Run(f.Name+"/empty", func(t *testing.T) {
			enc := encode(t, nil)
			if packets && enc.Len() != 0 {
				t.Errorf("empty trace = %d bytes, want 0 (no file header, only packets)", enc.Len())
			}
			got, err := ReadAll(f.NewReader(bytes.NewReader(enc.Bytes())))
			if err != nil || len(got) != 0 {
				t.Errorf("empty trace read back as %v, %v", got, err)
			}
		})

		t.Run(f.Name+"/invalid record refused", func(t *testing.T) {
			bad := sampleRecords()[0]
			bad.End = bad.Start.Add(-time.Hour)
			if err := f.NewWriter(io.Discard).Write(&bad); err == nil {
				t.Error("writer accepted a record that ends before it starts")
			}
		})

		t.Run(f.Name+"/meter", func(t *testing.T) {
			enc := encode(t, records)
			reg := metrics.New()
			got, err := ReadAll(MeterReader(f.NewReader(&enc.Buffer), reg))
			if err != nil || len(got) != len(records) {
				t.Fatalf("decoded %d records (err %v), want %d", len(got), err, len(records))
			}
			snap := reg.TakeSnapshot()
			if n := snap.Counters["flowio/"+f.Name+"/records"]; n != int64(len(records)) {
				t.Errorf("records counter = %d, want %d", n, len(records))
			}
			// The codec's read-ahead buffer may stop at EOF without an
			// extra empty read, but every encoded byte must be tallied.
			if n := snap.Counters["flowio/"+f.Name+"/bytes"]; n != int64(enc.ends[len(enc.ends)-1]) {
				t.Errorf("bytes counter = %d, want %d (encoded size)", n, enc.ends[len(enc.ends)-1])
			}
		})

		if !packets {
			continue
		}

		// Handing the writer a net.Conn must replay the trace as real
		// datagrams: one underlying Write per packet, none before a
		// packet is full.
		t.Run(f.Name+"/one write per packet", func(t *testing.T) {
			var rec writeRecorder
			w := f.NewWriter(&rec)
			for j := range records[:35] { // one full packet + one partial
				if err := w.Write(&records[j]); err != nil {
					t.Fatal(err)
				}
			}
			if len(rec.ends) != 1 {
				t.Errorf("writes before Flush = %d, want 1 (the full packet)", len(rec.ends))
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(rec.ends) != 2 {
				t.Errorf("writes after Flush = %d, want 2", len(rec.ends))
			}
		})

		// A trace cut at a packet boundary is a shorter trace; cut
		// anywhere else — mid-header, right after a header, mid-record —
		// it is an error, never a clean EOF.
		t.Run(f.Name+"/truncated at every cut", func(t *testing.T) {
			enc := encode(t, records[:35])
			whole := map[int]int{0: 0, enc.ends[0]: 30}
			for cut := 0; cut < enc.Len(); cut++ {
				got, err := ReadAll(f.NewReader(bytes.NewReader(enc.Bytes()[:cut])))
				if n, boundary := whole[cut]; boundary {
					if err != nil || len(got) != n {
						t.Errorf("cut at packet boundary %d: %d records, err %v; want %d, nil", cut, len(got), err, n)
					}
				} else if err == nil || errors.Is(err, io.EOF) {
					t.Errorf("trace cut at %d decoded cleanly (err = %v)", cut, err)
				}
			}
		})
	}
}

// The façade's and the tools' error for a mistyped -format comes from
// the table.
func TestLookup(t *testing.T) {
	for i := range Formats {
		if f, err := Lookup(Formats[i].Name); err != nil || f != &Formats[i] {
			t.Errorf("Lookup(%q) = %v, %v", Formats[i].Name, f, err)
		}
	}
	if _, err := Lookup("pcap"); err == nil || !reflect.DeepEqual(err.Error(), `flowio: unknown trace format "pcap" (have `+Names()+`)`) {
		t.Errorf("Lookup(pcap) = %v, want an error listing %s", err, Names())
	}
}
