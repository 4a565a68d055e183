package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plotters"
)

func TestParseSubnets(t *testing.T) {
	internal, err := plotters.ParseSubnets("128.2.0.0/16, 128.237.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := plotters.ParseIP("128.2.9.9")
	out, _ := plotters.ParseIP("4.4.4.4")
	if !internal(in) || internal(out) {
		t.Error("membership wrong")
	}
	if _, err := plotters.ParseSubnets("bogus"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if _, err := plotters.ParseSubnets(" , "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestReadTraceFormats(t *testing.T) {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	records := []plotters.Record{{
		Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: plotters.TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
		State: plotters.StateEstablished,
	}}
	dir := t.TempDir()
	for _, format := range []string{"binary", "csv", "jsonl"} {
		path := filepath.Join(dir, "trace."+format)
		writeTraceAs(t, path, format, records)
		reg := plotters.NewMetrics()
		var got batch
		if _, err := feed(path, format, reg, plotters.FlowSampler{}, &got); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(got.records) != 1 || got.records[0].Src != 1 {
			t.Errorf("%s: round trip failed", format)
		}
		snap := reg.TakeSnapshot()
		if n := snap.Counters["flowio/"+format+"/records"]; n != 1 {
			t.Errorf("%s: records counter = %d, want 1", format, n)
		}
	}
	if _, err := feed(filepath.Join(dir, "trace.binary"), "bogus", nil, plotters.FlowSampler{}, &batch{}); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := feed(filepath.Join(dir, "missing"), "binary", nil, plotters.FlowSampler{}, &batch{}); err == nil {
		t.Error("missing file accepted")
	}
}

// The -metrics flag must produce a valid JSON run report carrying every
// pipeline stage's duration and survivor-count gauges.
func TestRunReport(t *testing.T) {
	records := sixHosts()
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.bin")
	writeTraceAs(t, trace, "binary", records)

	// Every row extracts once and runs exactly the listed detectors over
	// that one feature set.
	for _, detectors := range []string{"findplotters", "findplotters,community", "community"} {
		t.Run(detectors, func(t *testing.T) { testRunReport(t, dir, trace, detectors, records) })
	}
}

// sixHosts is 20 minutes of six hosts, half their flows failed: a
// trace small enough to run in every test, every mode.
func sixHosts() []plotters.Record {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	var records []plotters.Record
	for host := 0; host < 6; host++ {
		for i := 0; i < 40; i++ {
			state := plotters.StateEstablished
			if i%2 == 0 {
				state = plotters.StateFailed
			}
			records = append(records, plotters.Record{
				Src: plotters.IP(host + 1), Dst: plotters.IP(1000 + host*50 + i%8),
				SrcPort: 1, DstPort: 2, Proto: plotters.TCP,
				Start:   start.Add(time.Duration(i) * 30 * time.Second),
				End:     start.Add(time.Duration(i)*30*time.Second + time.Second),
				SrcPkts: 1, SrcBytes: uint64(100 + host*10), State: state,
			})
		}
	}
	return records
}

func testRunReport(t *testing.T, dir, trace, detectors string, records []plotters.Record) {
	report := filepath.Join(dir, "report.json")
	args := []string{"-internal", "0.0.0.0/8", "-detectors", detectors, "-metrics", report, trace}
	var stdout bytes.Buffer
	if err := run(context.Background(), args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var got runReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Tool != "plotfind" || got.Trace != trace || got.Format != "binary" {
		t.Errorf("report header = %+v", got)
	}
	if got.Records != len(records) {
		t.Errorf("report records = %d, want %d", got.Records, len(records))
	}
	if got.ElapsedSeconds <= 0 {
		t.Errorf("elapsed = %v, want > 0", got.ElapsedSeconds)
	}
	stages := make(map[string]int64)
	for _, s := range got.Metrics.Stages {
		stages[s.Name] = s.Count
		if s.Count < 1 {
			t.Errorf("stage %q has count %d", s.Name, s.Count)
		}
	}
	want := []string{"pipeline/extract"}
	if strings.Contains(detectors, "community") {
		want = append(want, "community/build")
	}
	if strings.Contains(detectors, "findplotters") {
		want = append(want, "pipeline", "pipeline/reduction", "pipeline/vol", "pipeline/churn", "pipeline/hm")
		for _, gauge := range []string{
			"pipeline/hosts/analyzed", "pipeline/hosts/reduction", "pipeline/hosts/vol",
			"pipeline/hosts/churn", "pipeline/hosts/suspects",
		} {
			if _, ok := got.Metrics.Gauges[gauge]; !ok {
				t.Errorf("gauge %q missing from report", gauge)
			}
		}
	} else {
		if stages["pipeline"] != 0 {
			t.Errorf("the paper pipeline ran %d times, but -detectors %s leaves it out", stages["pipeline"], detectors)
		}
		if strings.Contains(stdout.String(), "θ_vol") {
			t.Errorf("-detectors %s printed the paper pipeline's stage table:\n%s", detectors, stdout.String())
		}
	}
	for _, name := range want {
		if stages[name] != 1 {
			t.Errorf("stage %q ran %d times, want once", name, stages[name])
		}
	}
	if n := got.Metrics.Counters["flowio/binary/records"]; n != int64(len(records)) {
		t.Errorf("flowio/binary/records = %d, want %d", n, len(records))
	}
}
