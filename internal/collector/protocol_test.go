package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/ingest"
)

// v9Records is a data FlowSet body of n records in fullTemplate's layout.
func v9Records(n int) (data []byte) {
	for i := 0; i < n; i++ {
		data = append(data, fullRecord(flow.IP(i+1), 9, 3, 4, flow.TCP, tcpACK, 1, 40, 0, 0)...)
	}
	return data
}

// rowPacket builds one packet of row p carrying seq and four records:
// the row's own Append where it has one, hand-built bytes (template +
// data FlowSet) for v9. stream patches the low byte of the header field
// the row reports as Packet.Stream.
func rowPacket(t *testing.T, p *Protocol, seq uint32, stream byte) []byte {
	t.Helper()
	pkt := v9Packet(1000, 1194253200, seq, 0, flowSet(0, fullTemplate(300)), flowSet(300, v9Records(len(wireRecords()))))
	if p.Append != nil {
		var err error
		if pkt, err = p.Append(nil, wireRecords(), seq); err != nil {
			t.Fatal(err)
		}
	}
	off, ok := map[string]int{"v5": 21, "v9": 19, "ipfix": 15, "sflow": 15}[p.Name]
	if !ok {
		t.Fatalf("row %q: tell this test where its stream id lives", p.Name)
	}
	pkt[off] = stream
	return pkt
}

// Rows must be mutually exclusive: each row's packet is claimed by that
// row alone, and packets too short or foreign by none.
func TestProtocolSniff(t *testing.T) {
	// The checkpoint wire format stores rows 0 and 1 by position.
	if Protocols[0].Name != "v5" || Protocols[1].Name != "v9" {
		t.Fatalf("rows 0,1 = %s,%s; SequenceState maps them to V5*/V9*", Protocols[0].Name, Protocols[1].Name)
	}
	claims := func(pkt []byte) (names []string) {
		for i := range Protocols {
			if Protocols[i].Sniff(pkt) {
				names = append(names, Protocols[i].Name)
			}
		}
		return names
	}
	for i := range Protocols {
		p := &Protocols[i]
		if got := claims(rowPacket(t, p, 1, 0)); len(got) != 1 || got[0] != p.Name {
			t.Errorf("%s packet claimed by %v", p.Name, got)
		}
		if (p.Append == nil) != (p.Frame == nil) {
			t.Errorf("%s: Append and Frame must come together", p.Name)
		}
	}
	if got := claims([]byte{0, 9, 1, 2}); len(got) != 1 || got[0] != "v9" {
		t.Errorf("version-9 prefix claimed by %v", got)
	}
	for _, pkt := range [][]byte{nil, {5}, {0, 7, 0, 0}, {0, 0, 0, 4}, {0, 0, 0}, make([]byte, 64)} {
		if got := claims(pkt); len(got) != 0 {
			t.Errorf("% x claimed by %v", pkt, got)
		}
	}
}

// One accounting rule, four protocols: in-order streams raise nothing,
// a forward jump is one gap measured in the row's unit, a backward jump
// is a reset and never a gap, and two streams behind one address are
// numbered apart.
func TestProtocolSequenceAccounting(t *testing.T) {
	const flows, packets = "collector/seq/lost_flows", "collector/seq/lost_packets"
	// What each protocol's specification says, not what the table says:
	// the unit a gap is counted in and how far one 4-record packet moves
	// the sequence.
	spec := map[string]struct {
		unit string
		step uint32
	}{
		"v5":    {flows, 4},
		"v9":    {packets, 1},
		"ipfix": {flows, 4},
		"sflow": {packets, 1},
	}
	for i := range Protocols {
		p := &Protocols[i]
		t.Run(p.Name, func(t *testing.T) {
			want, ok := spec[p.Name]
			if !ok {
				t.Fatalf("row %q has no accounting case", p.Name)
			}
			tc := startCollector(t, nil)
			injected := 0
			inject := func(seq uint32, stream byte) {
				tc.Inject(rowPacket(t, p, seq, stream), "router-1")
				injected++
			}
			expect := func(when string, gaps, lost, resets, exporters int64) {
				t.Helper()
				// Delivery follows accounting, so the records are the signal.
				waitFor(t, "every packet's records", func() bool { return len(tc.records()) == injected*len(wireRecords()) })
				other := flows
				if want.unit == flows {
					other = packets
				}
				for _, c := range []struct {
					name string
					want int64
				}{
					{"collector/seq/gaps", gaps}, {want.unit, lost}, {other, 0},
					{"collector/seq/resets", resets}, {"collector/packets/malformed", 0},
				} {
					if got := tc.counter(c.name); got != c.want {
						t.Errorf("%s: %s = %d, want %d", when, c.name, got, c.want)
					}
				}
				if got := tc.reg.TakeSnapshot().Gauges["collector/exporters"]; got != exporters {
					t.Errorf("%s: exporters = %d, want %d", when, got, exporters)
				}
			}

			inject(100, 0)
			inject(100+want.step, 0)
			inject(100+2*want.step, 0)
			expect("in order", 0, 0, 0, 1)

			inject(100+3*want.step+7, 0)
			expect("forward jump", 1, 7, 0, 1)

			inject(3, 0) // exporter restart
			expect("backward jump", 1, 7, 1, 1)

			inject(9000, 1)           // a second stream's first packet is its baseline
			inject(3+want.step, 0)    // stream 0 continues from its reset
			inject(9000+want.step, 1) // and so does stream 1
			expect("two streams", 1, 7, 1, 2)

			if p.Append == nil { // v9: every packet re-announced its template
				if got := tc.counter("collector/v9/templates"); got != int64(injected) {
					t.Errorf("templates learned = %d, want %d", got, injected)
				}
			}
		})
	}
}

// Raw-header sFlow records carry the clock the receive loop stamped on
// the buffer, not the time the decode worker got round to it.
func TestProcessUsesBufferArrival(t *testing.T) {
	var got []flow.Record
	c, err := Listen(Config{Addr: "127.0.0.1:0", Handler: func(recs []flow.Record) { got = append(got, recs...) }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	pkt, err := AppendSFlow(nil, sampleRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := c.ring.Get()
	pb.Data = append(pb.Data[:0], stripSFlowExtensions(t, pkt)...)
	pb.Arrival = time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
	var arena ingest.RecordArena
	c.process(pb, &arena)
	if len(got) != len(sampleRecords()) {
		t.Fatalf("delivered %d records, want %d", len(got), len(sampleRecords()))
	}
	for i := range got {
		if !got[i].Start.Equal(pb.Arrival) {
			t.Errorf("record %d stamped %v, want the buffer's arrival %v", i, got[i].Start, pb.Arrival)
		}
	}
}

// Frame cuts a concatenated stream back into exactly the datagrams
// Append wrote, and ends on io.EOF only at a datagram boundary.
func TestProtocolFrame(t *testing.T) {
	for i := range Protocols {
		p := &Protocols[i]
		if p.Frame == nil {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			a, b := rowPacket(t, p, 0, 0), rowPacket(t, p, p.SeqStep(4), 0)
			stream := bytes.NewReader(append(append([]byte(nil), a...), b...))
			var buf []byte
			for _, want := range [][]byte{a, b} {
				var err error
				if buf, err = p.Frame(stream, buf); err != nil || !bytes.Equal(buf, want) {
					t.Fatalf("framed %d bytes (err %v), want %d", len(buf), err, len(want))
				}
			}
			if _, err := p.Frame(stream, buf); err != io.EOF {
				t.Errorf("at the boundary: %v, want io.EOF", err)
			}
			if _, err := p.Frame(bytes.NewReader(a[:len(a)-1]), nil); !errors.Is(err, ErrTruncated) {
				t.Errorf("one byte short: %v, want ErrTruncated", err)
			}
		})
	}
}

// A datagram's sample count comes from the file: framing one made of
// very many tiny samples must grow the buffer geometrically, not copy
// the whole packet on every chunk read.
func TestFrameManySmallSamples(t *testing.T) {
	const samples = 100_000
	be := binary.BigEndian
	pkt := be.AppendUint32(be.AppendUint32(nil, 5), 1) // version, IPv4 agent
	pkt = append(pkt, make([]byte, 4+12)...)           // address, sub-agent, sequence, uptime
	pkt = be.AppendUint32(pkt, samples)
	pkt = append(pkt, make([]byte, 8*samples)...) // (type 0, length 0) pairs
	var got []byte
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if got, err = frameSFlow(bytes.NewReader(pkt), nil); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, pkt) {
		t.Fatalf("framed %d bytes, want %d", len(got), len(pkt))
	}
	if allocs > 64 {
		t.Errorf("%d samples cost %.0f allocations; the buffer must double", samples, allocs)
	}
}
