package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plotters"
	"plotters/internal/flow"
	"plotters/internal/flowio"
)

func TestParseSubnets(t *testing.T) {
	internal, err := plotters.ParseSubnets("128.2.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := plotters.ParseIP("128.2.1.1")
	out, _ := plotters.ParseIP("9.9.9.9")
	if !internal(in) || internal(out) {
		t.Error("membership wrong")
	}
	if _, err := plotters.ParseSubnets("nope"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if _, err := plotters.ParseSubnets(""); err == nil {
		t.Error("empty accepted")
	}
}

// TestFlagsRejectedBeforeScan: a bad -cdf or -internal is refused
// before the trace is opened, so a missing trace is never reached.
func TestFlagsRejectedBeforeScan(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-cdf bogus missing.flows", "unknown CDF feature"},
		{"-internal nope missing.flows", "flow: subnet"},
	} {
		var out strings.Builder
		if err := run(strings.Fields(tc.args), &out); err == nil || !strings.HasPrefix(err.Error(), tc.want) || out.Len() != 0 {
			t.Errorf("flowstat %s: got %v after %q, want %q", tc.args, err, out.String(), tc.want)
		}
	}
}

// An end-ordered trace, as exporters write one: the first record is
// not the earliest start and the last is not the latest. 128.2.0.1
// makes three flows, one failed; 128.2.0.2 one; the flow from the
// outside address is counted but has no features under -internal.
func TestSummaryOfEndOrderedTrace(t *testing.T) {
	t0 := time.Date(2007, 11, 5, 10, 0, 0, 0, time.UTC)
	a, b := flow.MakeIP(128, 2, 0, 1), flow.MakeIP(128, 2, 0, 2)
	x, y, ext := flow.MakeIP(8, 8, 8, 8), flow.MakeIP(9, 9, 9, 9), flow.MakeIP(7, 7, 7, 7)
	rec := func(src, dst flow.IP, start, end time.Duration, srcBytes, dstBytes uint64, state plotters.ConnState) plotters.Record {
		return plotters.Record{
			Src: src, Dst: dst, SrcPort: 4000, DstPort: 80, Proto: plotters.TCP,
			Start: t0.Add(start), End: t0.Add(end), SrcPkts: 1, DstPkts: 1,
			SrcBytes: srcBytes, DstBytes: dstBytes, State: state,
		}
	}
	records := []plotters.Record{
		rec(a, x, 30*time.Second, 40*time.Second, 1000, 100, plotters.StateEstablished),
		rec(a, y, 0, time.Minute, 60, 0, plotters.StateFailed),
		rec(ext, a, 5*time.Second, 65*time.Second, 40, 40, plotters.StateEstablished),
		rec(b, x, 50*time.Second, 70*time.Second, 300, 200, plotters.StateEstablished),
		rec(a, x, 20*time.Second, 2*time.Minute, 500, 0, plotters.StateEstablished),
	}
	var buf bytes.Buffer
	if err := flowio.WriteAllBinary(&buf, records); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.flows")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-internal", "128.2.0.0/16", "-cdf", "avgbytes", path}, &out); err != nil {
		t.Fatal(err)
	}
	// The span runs from the second record's start to the fourth's.
	want := `records	5
failed	1 (20.0%)
bytes	2240
span	2007-11-05 10:00:00 .. 2007-11-05 10:00:50
hosts	2

avgbytes  n=2 min=300 q1=355 med=410 mean=410 q3=465 max=520 sd=155.6
failrate  n=2 min=0 q1=0.08333 med=0.1667 mean=0.1667 q3=0.25 max=0.3333 sd=0.2357
newip     n=2 min=0 q1=0 med=0 mean=0 q3=0 max=0 sd=0
flows     n=2 min=1 q1=1.5 med=2 mean=2 q3=2.5 max=3 sd=1.414

# avgbytes
# x	F(x)
300	0.500000
520	1.000000
`
	if out.String() != want {
		t.Errorf("flowstat printed\n%s\nwant\n%s", out.String(), want)
	}
}
