package collector

import (
	"encoding/binary"
	"testing"

	"plotters/internal/flow"
	"plotters/internal/ingest"
	"plotters/internal/metrics"
)

// The ingest subsystem's hard steady-state contract: once an arena's
// slab has ratcheted to the packet size and (for the template
// protocols) templates are learned, what every decode worker runs per
// datagram — Collector.process: sniff through the table, decode via the
// row, account the sequence, sample, hand to the Handler, recycle the
// buffer and the arena — performs ZERO heap allocations, for every row
// of Protocols. BenchmarkIngestPipeline (repo root) reports the same
// number per iteration; this test fails the build the moment an
// allocation sneaks in (a header boxed into an interface, a closure
// per packet).
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	records := sampleRecords()
	// Steady state for the template protocols is data-only packets:
	// template sets allocate when learned, and real exporters refresh
	// them rarely, not per datagram. warm announces, steady repeats.
	ipfixFull, err := AppendIPFIX(nil, records, 0)
	if err != nil {
		t.Fatal(err)
	}
	be := binary.BigEndian
	ipfixData := append([]byte(nil), ipfixFull[:ipfixHeaderSize]...)
	for off := ipfixHeaderSize; off+4 <= len(ipfixFull); {
		setID := be.Uint16(ipfixFull[off:])
		setLen := int(be.Uint16(ipfixFull[off+2:]))
		if setID >= ipfixTemplateID {
			ipfixData = append(ipfixData, ipfixFull[off:off+setLen]...)
		}
		off += setLen
	}
	be.PutUint16(ipfixData[2:], uint16(len(ipfixData)))
	warm := map[string][]byte{
		"v9":    v9Packet(1000, 1194253200, 0, 0, flowSet(0, fullTemplate(300))),
		"ipfix": ipfixFull,
	}
	steady := map[string][]byte{
		"v9":    v9Packet(1000, 1194253200, 1, 0, flowSet(300, v9Records(len(records)))),
		"ipfix": ipfixData,
	}

	for i := range Protocols {
		p := &Protocols[i]
		t.Run(p.Name, func(t *testing.T) {
			pkt := steady[p.Name]
			if pkt == nil {
				if pkt, err = p.Append(nil, records, 0); err != nil {
					t.Fatal(err)
				}
			}
			reg := metrics.New()
			c, err := Listen(Config{
				Addr: "127.0.0.1:0", SampleN: 4, SampleSeed: 7, Metrics: reg,
				Handler: func([]flow.Record) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.conn.Close()
			var arena ingest.RecordArena
			process := func(pkt []byte) {
				pb, _ := c.ring.Get()
				pb.Data = append(pb.Data[:0], pkt...)
				pb.Exporter = "zero"
				c.process(pb, &arena)
			}
			// Warm-up: learn templates, ratchet the slab, create the
			// exporter's accounting entry, and verify the decode works at
			// all.
			decoded := func() int64 {
				snap := reg.TakeSnapshot()
				return snap.Counters["collector/records"] + snap.Counters["collector/records/sampled_out"]
			}
			if w := warm[p.Name]; w != nil {
				process(w)
			}
			before := decoded()
			process(pkt)
			if got := decoded() - before; got != int64(len(records)) {
				t.Fatalf("warm-up decoded %d records, want %d", got, len(records))
			}
			if allocs := testing.AllocsPerRun(100, func() { process(pkt) }); allocs != 0 {
				t.Errorf("steady-state ingest loop allocates %.1f times per packet, want 0", allocs)
			}
		})
	}
}
