// BenchmarkIngestPipeline measures the steady-state hot loop the
// collector's decode workers run per datagram — wire decode into a
// pooled arena, deterministic 1-in-N sampling, arena reset — for each
// export protocol the ingest subsystem speaks. ReportAllocs makes the
// zero-allocation contract visible in every run (and hard-asserted by
// TestIngestSteadyStateZeroAlloc in internal/collector); the bench-gate
// CI job fails a PR when allocs/op leaves zero or ns/op regresses past
// the threshold. IPFIX is measured on data-only messages: template sets
// allocate when (re)learned, which real exporters do rarely, not per
// datagram.
package plotters_test

import (
	"encoding/binary"
	"testing"
	"time"

	"plotters/internal/collector"
	"plotters/internal/flow"
	"plotters/internal/ingest"
)

// ingestBenchRecords builds one packet's worth of varied, valid flow
// records.
func ingestBenchRecords() []flow.Record {
	t0 := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	records := make([]flow.Record, collector.V5MaxRecords)
	for i := range records {
		state := flow.StateEstablished
		if i%3 == 0 {
			state = flow.StateFailed
		}
		records[i] = flow.Record{
			Src: flow.IP(0x80020000 + i), Dst: flow.IP(0x42230000 + i*7),
			SrcPort: uint16(40000 + i), DstPort: uint16(80 + i%3), Proto: flow.TCP,
			Start:   t0.Add(time.Duration(i) * 100 * time.Millisecond),
			End:     t0.Add(time.Duration(i)*100*time.Millisecond + 2*time.Second),
			SrcPkts: 10, SrcBytes: 1400, DstPkts: 4, DstBytes: 600,
			State: state,
		}
	}
	return records
}

// ipfixDataOnly strips the template set out of a self-describing IPFIX
// message, leaving header + data set — the steady-state shape.
func ipfixDataOnly(tb testing.TB, full []byte) []byte {
	tb.Helper()
	be := binary.BigEndian
	out := append([]byte(nil), full[:16]...)
	for off := 16; off+4 <= len(full); {
		setID := be.Uint16(full[off:])
		setLen := int(be.Uint16(full[off+2:]))
		if setLen < 4 || off+setLen > len(full) {
			tb.Fatalf("bad set at %d", off)
		}
		if setID >= 256 {
			out = append(out, full[off:off+setLen]...)
		}
		off += setLen
	}
	be.PutUint16(out[2:], uint16(len(out)))
	return out
}

func BenchmarkIngestPipeline(b *testing.B) {
	records := ingestBenchRecords()
	v5pkt, err := collector.AppendV5(nil, records, 0)
	if err != nil {
		b.Fatal(err)
	}
	ipfixFull, err := collector.AppendIPFIX(nil, records, 0)
	if err != nil {
		b.Fatal(err)
	}
	ipfixData := ipfixDataOnly(b, ipfixFull)
	sflowPkt, err := collector.AppendSFlow(nil, records, 0)
	if err != nil {
		b.Fatal(err)
	}
	arrival := records[0].Start

	for _, bc := range []struct {
		name    string
		proto   string // row of collector.Protocols: the decode runs through the table, as in the collector
		pkt     []byte
		sampleN uint64
	}{
		{"proto=v5", "v5", v5pkt, 1},
		{"proto=ipfix", "ipfix", ipfixData, 1},
		{"proto=sflow", "sflow", sflowPkt, 1},
		{"proto=v5/sample=16", "v5", v5pkt, 16},
	} {
		row, err := collector.ExportProtocol(bc.proto)
		if err != nil {
			b.Fatal(err)
		}
		decode := func(tc *collector.TemplateCache, pkt []byte, dst []flow.Record) ([]flow.Record, error) {
			_, recs, err := row.Decode(tc, "bench", pkt, arrival, dst)
			return recs, err
		}
		b.Run(bc.name, func(b *testing.B) {
			tc := collector.NewTemplateCache()
			if bc.name == "proto=ipfix" {
				// Learn the template once — the warm-exporter state.
				if _, _, _, err := tc.DecodeIPFIX("bench", ipfixFull, nil); err != nil {
					b.Fatal(err)
				}
			}
			var arena ingest.RecordArena
			sampler := ingest.Sampler{N: bc.sampleN, Seed: 42}
			// Warm the arena slab so the timed loop is pure steady state.
			recs, err := decode(tc, bc.pkt, arena.Take())
			if err != nil {
				b.Fatal(err)
			}
			decoded := len(recs)
			arena.Reset(recs)

			b.SetBytes(int64(len(bc.pkt)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := decode(tc, bc.pkt, arena.Take())
				if err != nil {
					b.Fatal(err)
				}
				_ = sampler.Filter(recs)
				arena.Reset(recs)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*decoded)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
