package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"plotters"
	"plotters/internal/flowio"
)

// replayTrace writes n valid, start-ordered records as a binary trace.
func replayTrace(t *testing.T, n int) (string, []plotters.Record) {
	t.Helper()
	base := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
	records := make([]plotters.Record, n)
	for i := range records {
		start := base.Add(time.Duration(i) * 100 * time.Millisecond)
		records[i] = plotters.Record{
			Src: plotters.IP(0x80020100 + i%7), Dst: plotters.IP(0x0a000000 + i), SrcPort: uint16(4000 + i), DstPort: 80,
			Proto: plotters.TCP, State: plotters.StateEstablished, Start: start, End: start.Add(time.Second),
			SrcPkts: uint32(1 + i), DstPkts: 2, SrcBytes: uint64(100 * i), DstBytes: 60,
		}
	}
	path := filepath.Join(t.TempDir(), "trace.flows")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := plotters.NewTraceWriter(f, "binary")
	if err != nil {
		t.Fatal(err)
	}
	if err := plotters.WriteAllTrace(w, records); err != nil {
		t.Fatal(err)
	}
	return path, records
}

// Every -emit protocol reaches a loopback collector as that protocol's
// own round trip of the trace: every record, in order, with a gap-free
// exporter sequence and nothing dropped or malformed.
func TestReplayToLoopbackCollector(t *testing.T) {
	path, records := replayTrace(t, 95) // three full packets and a tail of 5
	for _, emit := range []string{"v5", "ipfix", "sflow"} {
		t.Run(emit, func(t *testing.T) {
			proto, err := plotters.LookupExportProtocol(emit)
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if err := flowio.WriteAll(flowio.NewPacketWriter(&enc, proto), records); err != nil {
				t.Fatal(err)
			}
			want, err := flowio.ReadAll(flowio.NewPacketReader(&enc, emit, proto))
			if err != nil {
				t.Fatal(err)
			}

			var (
				mu  sync.Mutex
				got []plotters.Record
			)
			reg := plotters.NewMetrics()
			col, err := plotters.ListenNetFlow(plotters.CollectorConfig{
				Addr: "127.0.0.1:0", Workers: 1, Metrics: reg,
				Handler: func(recs []plotters.Record) { mu.Lock(); got = append(got, recs...); mu.Unlock() },
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- col.Run(ctx) }()

			var stderr bytes.Buffer
			if err := run(context.Background(), []string{"-to", col.Addr().String(), "-emit", emit, "-speedup", "1000", path}, &stderr); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); reg.TakeSnapshot().Counters["collector/records"] < int64(len(records)); {
				if time.Now().After(deadline) {
					t.Fatalf("collector decoded %d of %d records", reg.TakeSnapshot().Counters["collector/records"], len(records))
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			if !strings.Contains(stderr.String(), "replayed 95 records in 4 packets") {
				t.Errorf("summary %q, want 95 records in 4 packets", stderr.String())
			}
			snap := reg.TakeSnapshot()
			for name, want := range map[string]int64{"collector/packets": 4, "collector/seq/gaps": 0, "collector/packets/dropped": 0, "collector/packets/malformed": 0} {
				if n := snap.Counters[name]; n != want {
					t.Errorf("%s = %d, want %d", name, n, want)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("collector records differ from the %s round trip:\ngot  %v\nwant %v", emit, got, want)
			}
		})
	}
}

func TestRejectedFlags(t *testing.T) {
	path, _ := replayTrace(t, 1)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "exactly one trace file"},
		{[]string{"-to", "127.0.0.1:9"}, "exactly one trace file"},
		{[]string{path}, "-to is required"},
		{[]string{"-to", "127.0.0.1:9", "-emit", "v9", path}, "-emit"},
		{[]string{"-to", "127.0.0.1:9", "-speedup", "-1", path}, "-speedup"},
		{[]string{"-to", "127.0.0.1:9", "-format", "pcap", path}, "unknown trace format"},
		{[]string{"-to", "127.0.0.1:9", "-batch", "10", path}, "-batch"},
	} {
		err := run(context.Background(), tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}
