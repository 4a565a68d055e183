package collector

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// benchPacket builds one full 30-record v5 packet — the shape a busy
// exporter actually sends.
func benchPacket(b *testing.B) []byte {
	b.Helper()
	t0 := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	records := make([]flow.Record, V5MaxRecords)
	for i := range records {
		records[i] = flow.Record{
			Src: flow.IP(0x80020000 + i), Dst: flow.IP(0x42230000 + i*7),
			SrcPort: uint16(40000 + i), DstPort: 80, Proto: flow.TCP,
			Start:   t0.Add(time.Duration(i) * 100 * time.Millisecond),
			End:     t0.Add(time.Duration(i)*100*time.Millisecond + 2*time.Second),
			SrcPkts: 10, SrcBytes: 1400,
			State: flow.StateEstablished,
		}
	}
	pkt, err := AppendV5(nil, records, 0)
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

func BenchmarkNetFlowDecode(b *testing.B) {
	pkt := benchPacket(b)
	var scratch []flow.Record
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, scratch, err = DecodeV5(pkt, scratch[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(b.N*V5MaxRecords)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkCollectorIngest measures the full in-process ingest path:
// Inject → bounded queue → decode worker → serialized handler. Injection
// waits while a queue's worth of packets is unhandled, so none is dropped
// and every packet is actually processed — the number is sustained
// throughput, not enqueue speed.
func BenchmarkCollectorIngest(b *testing.B) {
	pkt := benchPacket(b)
	var processed atomic.Int64
	reg := metrics.New()
	c, err := Listen(Config{
		Addr:    "127.0.0.1:0",
		Handler: func(records []flow.Record) { processed.Add(int64(len(records))) },
		Metrics: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	queue := int64(c.cfg.QueueSize)

	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := int64(0); i < int64(b.N); i++ {
		for i-processed.Load()/V5MaxRecords >= queue {
			runtime.Gosched() // queue full: let the workers catch up
		}
		c.Inject(pkt, "bench")
	}
	for processed.Load() < int64(b.N)*V5MaxRecords {
		runtime.Gosched()
	}
	b.StopTimer()
	if n := reg.TakeSnapshot().Counters["collector/packets/dropped"]; n != 0 {
		b.Fatalf("%d packets dropped", n)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(b.N*V5MaxRecords)/b.Elapsed().Seconds(), "records/s")
	cancel()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
