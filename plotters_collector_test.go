// Loopback equivalence test for the live NetFlow path: a seed-42
// synthetic trace packed into v5 export packets and replayed through a
// real UDP socket into the collector must drive the windowed engine to
// the exact same per-window outcome as feeding the engine directly —
// the wire adds quantization, but never drift. The per-window outcome
// is additionally pinned in testdata/collector_golden.json.
//
// After an intentional behavior change, regenerate with:
//
//	go test -run TestCollectorLoopbackGolden -update
package plotters_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"plotters"
)

const collectorGoldenPath = "testdata/collector_golden.json"

// collectorWindow pins one sealed window's outcome on the wire-format
// corpus.
type collectorWindow struct {
	Index    int      `json:"index"`
	Window   string   `json:"window"`
	Hosts    int      `json:"hosts"`
	Records  int      `json:"records"`
	Suspects []string `json:"suspects"`
}

// collectorGolden pins the whole loopback run.
type collectorGolden struct {
	WireRecords int               `json:"wire_records"`
	Windows     []collectorWindow `json:"windows"`
}

// corpusDay synthesizes a scaled-down day 0 of the seed-42 corpus (the
// loopback equivalence tests need a realistic record mix, not full
// scale), shared by the v5 golden and the IPFIX/sFlow format loopback.
func corpusDay(t *testing.T) ([]plotters.Record, plotters.Window, plotters.Config) {
	t.Helper()
	pipe := plotters.DefaultConfig()
	pipe.MinInterstitialSamples = 20
	smallCorpus.once.Do(func() {
		cfg := plotters.DefaultDatasetConfig(42)
		cfg.Days = 1
		cfg.DayTemplate.CampusHosts = 100
		cfg.DayTemplate.Gnutella = 3
		cfg.DayTemplate.EMule = 3
		cfg.DayTemplate.BitTorrent = 4
		cfg.DayTemplate.PeerNetworkNodes = 800
		cfg.Storm.Bots = 6
		cfg.Storm.OverlayNodes = 500
		cfg.Storm.SeedPeers = 50
		cfg.Nugache.Bots = 15
		cfg.Nugache.OverlayNodes = 400
		ds, err := plotters.GenerateDataset(cfg)
		if err != nil {
			smallCorpus.err = err
			return
		}
		smallCorpus.window = ds.Days[0].Window
		smallCorpus.day, smallCorpus.err = plotters.OverlayDay(ds.Days[0], ds, 43, pipe)
	})
	if smallCorpus.err != nil {
		t.Fatal(smallCorpus.err)
	}
	return smallCorpus.day.Records, smallCorpus.window, pipe
}

// smallCorpus caches corpusDay's synthesis; its callers only read it.
var smallCorpus struct {
	once   sync.Once
	day    *plotters.DayEval
	window plotters.Window
	err    error
}

// collectorCorpus quantizes the corpus day through the NetFlow v5
// codec. It returns the quantized records — what any collector behind a
// real exporter would see — and the encoded packet stream they rode in
// on.
func collectorCorpus(t *testing.T) ([]plotters.Record, []byte, plotters.Window, plotters.Config) {
	t.Helper()
	records, window, pipe := corpusDay(t)

	var buf bytes.Buffer
	w, err := plotters.NewTraceWriter(&buf, "netflow")
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if err := w.Write(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := plotters.NewTraceReader(bytes.NewReader(buf.Bytes()), "netflow")
	if err != nil {
		t.Fatal(err)
	}
	var wire []plotters.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, rec)
	}
	if len(wire) != len(records) {
		t.Fatalf("codec round trip lost records: %d != %d", len(wire), len(records))
	}
	return wire, buf.Bytes(), window, pipe
}

// splitPackets cuts the encoded stream back into the individual v5
// export packets it is made of, with each packet's record count.
func splitPackets(t *testing.T, stream []byte) (packets [][]byte, counts []int) {
	t.Helper()
	for len(stream) > 0 {
		if len(stream) < 24 {
			t.Fatalf("trailing %d bytes are not a v5 packet", len(stream))
		}
		count := int(binary.BigEndian.Uint16(stream[2:4]))
		plen := 24 + count*48
		if len(stream) < plen {
			t.Fatalf("truncated packet: have %d bytes, need %d", len(stream), plen)
		}
		packets = append(packets, stream[:plen])
		counts = append(counts, count)
		stream = stream[plen:]
	}
	return packets, counts
}

// collectorEngine builds a windowed detector over the corpus day split
// into three detection windows, recording each sealed window's summary.
func collectorEngine(t *testing.T, pipe plotters.Config, w plotters.Window, out *[]collectorWindow) *plotters.WindowedDetector {
	t.Helper()
	eng, err := plotters.NewWindowedDetector(plotters.EngineConfig{
		Window:   w.Duration() / 3,
		Origin:   w.From,
		MaxSkew:  time.Hour,
		Internal: plotters.IsInternal,
		DropLate: true,
		Core:     pipe,
	}, func(res *plotters.WindowResult) error {
		suspects := res.Detection.Suspects.Sorted()
		strs := make([]string, len(suspects))
		for i, h := range suspects {
			strs[i] = h.String()
		}
		*out = append(*out, collectorWindow{
			Index:    res.Index,
			Window:   res.Window.String(),
			Hosts:    res.Hosts,
			Records:  res.Records,
			Suspects: strs,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCollectorLoopbackGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis and loopback replay take a few seconds; skipped in -short mode")
	}
	wire, stream, w, pipe := collectorCorpus(t)
	packets, counts := splitPackets(t, stream)

	// Reference: the quantized records fed straight into the engine.
	var direct []collectorWindow
	dEng := collectorEngine(t, pipe, w, &direct)
	for i := range wire {
		if err := dEng.Add(&wire[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dEng.AdvanceTo(w.To); err != nil {
		t.Fatal(err)
	}
	if dEng.Dropped() != 0 {
		t.Fatalf("direct ingest dropped %d records", dEng.Dropped())
	}

	// Live path: the same packets through a real UDP socket. One decode
	// worker preserves arrival order; the sender flow-controls on the
	// collector's record counter so the kernel socket buffer can never
	// overflow — this test measures equivalence, not burst tolerance
	// (the collector package's own tests cover overflow).
	var live []collectorWindow
	lEng := collectorEngine(t, pipe, w, &live)
	reg := plotters.NewMetrics()
	col, err := plotters.ListenNetFlow(plotters.CollectorConfig{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Metrics: reg,
		Handler: func(records []plotters.Record) {
			for i := range records {
				if err := lEng.Add(&records[i]); err != nil {
					t.Errorf("live ingest: %v", err)
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- col.Run(ctx) }()

	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	decoded := func() int64 {
		return reg.TakeSnapshot().Counters["collector/records"]
	}
	sent := 0
	for i, pkt := range packets {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		sent += counts[i]
		deadline := time.Now().Add(10 * time.Second)
		for decoded() < int64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("packet %d: collector decoded %d of %d sent records", i, decoded(), sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if err := lEng.AdvanceTo(w.To); err != nil {
		t.Fatal(err)
	}

	// The wire must have been clean: every packet decoded, nothing
	// dropped, malformed, or gapped — and the engine saw every record.
	snap := reg.TakeSnapshot()
	for name, want := range map[string]int64{
		"collector/packets":           int64(len(packets)),
		"collector/records":           int64(len(wire)),
		"collector/packets/dropped":   0,
		"collector/packets/malformed": 0,
		"collector/seq/gaps":          0,
		"collector/seq/lost_flows":    0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if lEng.Dropped() != 0 {
		t.Errorf("live ingest dropped %d records", lEng.Dropped())
	}

	// The socket must not have changed the outcome in any way.
	if !reflect.DeepEqual(live, direct) {
		t.Fatalf("live windows differ from direct ingest:\nlive   %+v\ndirect %+v", live, direct)
	}

	got := collectorGolden{WireRecords: len(wire), Windows: direct}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(collectorGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", collectorGoldenPath)
		return
	}
	raw, err := os.ReadFile(collectorGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want collectorGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loopback outcome changed:\ngot  %+v\nwant %+v", got, want)
	}
}
