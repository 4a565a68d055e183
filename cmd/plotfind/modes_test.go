package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plotters"
)

// The tests in this file drive run() — the real flag parsing, validation
// and source × engine × sink composition — never the engines directly.

const dayOrigin = "2007-11-05T09:00:00Z"

var testDay struct {
	once    sync.Once
	records []plotters.Record
	err     error
}

// dayRecords synthesizes one scaled-down seed-42 campus day, once per
// test binary, already quantized through the NetFlow v5 codec
// (millisecond timestamps, no payload, no responder counters) — so the
// records a trace file holds are exactly what a collector behind an
// exporter of the same day sees.
func dayRecords(t *testing.T) []plotters.Record {
	t.Helper()
	testDay.once.Do(func() {
		cfg := plotters.DefaultDayConfig(time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC), 42)
		cfg.CampusHosts, cfg.Gnutella, cfg.EMule, cfg.BitTorrent, cfg.PeerNetworkNodes = 100, 3, 3, 4, 800
		day, err := plotters.GenerateDay(cfg)
		if err != nil {
			testDay.err = err
			return
		}
		var wire bytes.Buffer
		w, err := plotters.NewTraceWriter(&wire, "netflow")
		if err == nil {
			err = plotters.WriteAllTrace(w, day.Records)
		}
		if err != nil {
			testDay.err = err
			return
		}
		r, err := plotters.NewTraceReader(&wire, "netflow")
		if err == nil {
			testDay.records, err = plotters.ReadAllTrace(r)
		}
		testDay.err = err
	})
	if testDay.err != nil {
		t.Fatal(testDay.err)
	}
	return append([]plotters.Record(nil), testDay.records...)
}

func writeTrace(t *testing.T, records []plotters.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "day.flows")
	writeTraceAs(t, path, "binary", records)
	return path
}

// writeTraceAs writes records to path in the named trace format.
func writeTraceAs(t *testing.T, path, format string, records []plotters.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := plotters.NewTraceWriter(f, format)
	if err == nil {
		err = plotters.WriteAllTrace(w, records)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// output is a run's stdout or stderr: written by whichever goroutine
// emits (a coordinator prints windows from its connection goroutines),
// read by the test while the run is still going.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// await polls until re matches the output and returns its first group —
// how a test learns the address a run bound.
func (o *output) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if m := re.FindStringSubmatch(o.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no %q in output %q", re, o.String())
	return ""
}

// background starts a run that lasts until stop is called (the modes
// that wait for SIGINT); stop cancels it and returns its stdout.
func background(t *testing.T, args ...string) (stderr *output, stop func() string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr := &output{}, &output{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, stdout, stderr) }()
	t.Cleanup(cancel)
	return stderr, func() string {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("plotfind %s: %v\nstderr: %s", strings.Join(args, " "), err, stderr)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("plotfind %s still running 60s after cancel", strings.Join(args, " "))
		}
		return stdout.String()
	}
}

// foreground runs plotfind to completion and returns its stdout.
func foreground(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr output
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("plotfind %s: %v\nstderr: %s", strings.Join(args, " "), err, &stderr)
	}
	return stdout.String()
}

// distRun runs a coordinator and its shards over loopback TCP, each
// a run() of its own, the shards one after another over the same trace.
// It returns the coordinator's stdout and every shard's.
func distRun(t *testing.T, shards int, trace string, common ...string) (coordinator string, shardOut []string) {
	t.Helper()
	n := strconv.Itoa(shards)
	stderr, stop := background(t, append([]string{"-role", "coordinator", "-peers", "127.0.0.1:0", "-dist-shards", n}, common...)...)
	addr := stderr.await(t, regexp.MustCompile(`shards expected on (\S+)`))
	for i := 0; i < shards; i++ {
		args := append([]string{"-role", "shard", "-shard", strconv.Itoa(i), "-dist-shards", n, "-peers", addr}, common...)
		shardOut = append(shardOut, foreground(t, append(args, trace)...))
	}
	return stop(), shardOut
}

var (
	windowLine  = regexp.MustCompile(`(?m)^window \d+ .*$`)
	windowStats = regexp.MustCompile(`reduction=(\d+) vol=(\d+) churn=(\d+) suspects=(\d+)`)
	batchStats  = regexp.MustCompile(`(?s)reduction +(\d+) .*θ_vol +(\d+) .*θ_churn +(\d+) .*θ_hm +(\d+) `)
	suspectLine = regexp.MustCompile(`(?m)^  (\d+\.\d+\.\d+\.\d+) +flows=`)
)

// verdict is what every mode must agree on: the survivors of the
// reduction, θ_vol and θ_churn, and the suspect set.
type verdict struct {
	Reduction, Vol, Churn string
	Suspects              []string
}

func parseVerdict(t *testing.T, mode, out string, stats *regexp.Regexp) verdict {
	t.Helper()
	m := stats.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("%s: no stage counts in output:\n%s", mode, out)
	}
	v := verdict{Reduction: m[1], Vol: m[2], Churn: m[3]}
	for _, s := range suspectLine.FindAllStringSubmatch(out, -1) {
		v.Suspects = append(v.Suspects, s[1])
	}
	if strconv.Itoa(len(v.Suspects)) != m[4] {
		t.Fatalf("%s: %d suspect lines for a count of %s:\n%s", mode, len(v.Suspects), m[4], out)
	}
	return v
}

// TestModesAgree: one day, written once, through the four ways plotfind
// can reach a verdict on it. The root goldens prove the library paths
// equal; this proves the binary composes them the same way.
func TestModesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a day and replays it four ways")
	}
	records := dayRecords(t)
	trace := writeTrace(t, records)
	windowed := []string{"-v", "-window", "6h", "-origin", dayOrigin}

	want := parseVerdict(t, "batch", foreground(t, "-v", trace), batchStats)
	if len(want.Suspects) == 0 {
		t.Fatal("the day convicts nobody: the comparison would be vacuous")
	}
	got := map[string]verdict{
		"-window": parseVerdict(t, "-window", foreground(t, append(windowed, trace)...), windowStats),
	}

	coordinator, _ := distRun(t, 2, trace, windowed...)
	got["2 shards + coordinator"] = parseVerdict(t, "coordinator", coordinator, windowStats)

	stderr, stop := background(t, append([]string{"-listen", "127.0.0.1:0"}, windowed...)...)
	replay(t, stderr.await(t, regexp.MustCompile(`sFlow on (\S+)`)), records)
	live := stop()
	if want := fmt.Sprintf("\n%d records collected", len(records)); !strings.Contains(live, want) {
		t.Fatalf("the loopback socket lost records: want %q in\n%s", want, live)
	}
	got["-listen"] = parseVerdict(t, "-listen", live, windowStats)

	for mode, v := range got {
		if !reflect.DeepEqual(v, want) {
			t.Errorf("%s disagrees with the batch run:\n got  %+v\n want %+v", mode, v, want)
		}
	}

	// Without -origin every node computes the same epoch grid, so the
	// shards and coordinator print the single process's windows.
	epoch := []string{"-v", "-window", "6h"}
	lines := func(out string) []string {
		return append(windowLine.FindAllString(out, -1), suspectLine.FindAllString(out, -1)...)
	}
	single := lines(foreground(t, append(epoch, trace)...))
	coordinator, _ = distRun(t, 2, trace, epoch...)
	if got := lines(coordinator); len(single) == 0 || !reflect.DeepEqual(got, single) {
		t.Errorf("without -origin, 2 shards + coordinator disagree with -window:\n got  %q\n want %q", got, single)
	}
}

// replay sends records to a collector as NetFlow v5 datagrams through
// the packet trace writer, a few at a time, never leaving more in the
// kernel's receive queue than its default buffer holds — UDP has no
// back-pressure of its own — and returns once the collector has read
// the last one.
func replay(t *testing.T, addr string, records []plotters.Record) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	paced := &pacedConn{Conn: conn, t: t, port: conn.RemoteAddr().(*net.UDPAddr).Port}
	w, err := plotters.NewTraceWriter(paced, "netflow")
	if err == nil {
		err = plotters.WriteAllTrace(w, records)
	}
	if err != nil {
		t.Fatal(err)
	}
	// The collector's queue holds 4,096 datagrams and drops beyond that:
	// pacing the kernel queue cannot help a feed larger than it.
	if paced.sent >= 4000 {
		t.Fatalf("%d datagrams could overflow the collector's queue; shrink the test day", paced.sent)
	}
	paced.drain()
}

type pacedConn struct {
	net.Conn
	t    *testing.T
	port int
	sent int
}

func (c *pacedConn) Write(p []byte) (int, error) {
	if c.sent++; c.sent%32 == 0 {
		c.drain()
	}
	return c.Conn.Write(p)
}

// drain waits until the receive queue of the UDP socket bound to c.port
// is empty, as /proc/net/udp reports it; where there is no such file it
// can only sleep.
func (c *pacedConn) drain() {
	c.t.Helper()
	local := fmt.Sprintf(":%04X", c.port)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		table, err := os.ReadFile("/proc/net/udp")
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			return
		}
		for _, line := range strings.Split(string(table), "\n") {
			// sl local_address rem_address st tx_queue:rx_queue ...
			f := strings.Fields(line)
			if len(f) > 4 && strings.HasSuffix(f[1], local) && strings.HasSuffix(f[4], ":00000000") {
				return
			}
		}
	}
	c.t.Fatalf("collector on port %d left datagrams unread for 20s", c.port)
}

// TestLateRecordCountedInEveryMode: a record beyond the skew tolerance
// is a statistic wherever it turns up. The shard used to die on it
// ("engine: record beyond MaxSkew") where the single process counted
// it, so a distributed run was not the -window run it promises to be.
func TestLateRecordCountedInEveryMode(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a day")
	}
	records := dayRecords(t)
	late := records[1]
	records = append(append(records[:1:1], records[2:]...), late)
	trace := writeTrace(t, records)
	geometry := []string{"-window", "6h", "-skew", "5m", "-origin", dayOrigin}

	single := foreground(t, append(geometry, trace)...)
	coordinator, shards := distRun(t, 1, trace, geometry...)

	const dropped = ", 1 records dropped beyond the 5m0s skew tolerance"
	if !strings.Contains(single, dropped) {
		t.Errorf("-window run does not report the drop:\n%s", single)
	}
	if !strings.Contains(shards[0], dropped) {
		t.Errorf("shard does not report the drop:\n%s", shards[0])
	}
	want, got := windowLine.FindAllString(single, -1), windowLine.FindAllString(coordinator, -1)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("window lines differ:\n -window     %q\n coordinator %q", want, got)
	}
}

var serveLine = regexp.MustCompile(`metrics at http://(\S+)/metrics`)

// TestServe: -serve exposes a live run's registry and the profiler while
// the run lasts and is gone once run returns; a file run that serves
// prints what it prints without.
func TestServe(t *testing.T) {
	stderr, stop := background(t, "-listen", "127.0.0.1:0", "-window", "1h", "-serve", "127.0.0.1:0")
	addr := stderr.await(t, serveLine)
	stderr.await(t, regexp.MustCompile(`sFlow on (\S+)`))
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return body
	}
	if body := get("/metrics"); !bytes.Contains(body, []byte("plotters_collector_packets_total")) {
		t.Errorf("/metrics has no collector packet counter:\n%s", body)
	}
	var snap plotters.MetricsSnapshot
	if err := json.Unmarshal(get("/metrics?format=json"), &snap); err != nil {
		t.Errorf("/metrics?format=json: %v", err)
	} else if _, ok := snap.Counters["collector/packets"]; !ok {
		t.Errorf("/metrics?format=json has no collector/packets counter: %+v", snap.Counters)
	}
	get("/debug/pprof/")
	stop()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("-serve still accepts on %s after run returned", addr)
	}

	trace := writeTrace(t, sixHosts())
	windowed := []string{"-internal", "0.0.0.0/8", "-v", "-window", "10m", trace}
	want := foreground(t, windowed...)
	var stdout, served output
	if err := run(context.Background(), append([]string{"-serve", "127.0.0.1:0"}, windowed...), &stdout, &served); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != want {
		t.Errorf("-serve changed a -window run's output:\n got  %q\n want %q", got, want)
	}
	if conn, err := net.Dial("tcp", served.await(t, serveLine)); err == nil {
		conn.Close()
		t.Error("-serve still accepts after a file run returned")
	}
}

// TestRejectedFlags lists every mode × flag pair that is refused, with
// its message. Each used to be silently ignored (or, for -listen with
// -role shard, caught by a check the coordinator never reached).
func TestRejectedFlags(t *testing.T) {
	dist := "-peers 127.0.0.1:0 -dist-shards 2 -window 6h -origin " + dayOrigin
	for _, tc := range []struct{ args, want string }{
		{"-role coordinator -listen :2055 " + dist, "-listen and -role are mutually exclusive"},
		{"-role shard -listen :2055 " + dist + " x", "-listen and -role are mutually exclusive"},
		{"-role coordinator -state-dir D " + dist, "-state-dir requires -listen"},
		{"-role shard -state-dir D " + dist + " x", "-state-dir requires -listen"},
		{"-window 6h -state-dir D x", "-state-dir requires -listen"},
		{"-state-dir D x", "-state-dir requires -listen"},
		{"-origin " + dayOrigin + " x", "-slide, -shards, -skew and -origin require -window"},
		{"-slide 1h x", "-slide, -shards, -skew and -origin require -window"},
		{"-skew 5m x", "-slide, -shards, -skew and -origin require -window"},
		{"-shards 4 x", "-slide, -shards, -skew and -origin require -window"},
		{"-dist-timeout 1s x", "-dist-timeout requires -role coordinator"},
		{"-role shard -dist-timeout 1s " + dist + " x", "-dist-timeout requires -role coordinator"},
		{"-role coordinator -dist-timeout -1s " + dist, "-dist-timeout must be >= 0"},
		{"-drain-timeout 1s x", "-shard and -drain-timeout require -role shard"},
		{"-role coordinator -drain-timeout 1s " + dist, "-shard and -drain-timeout require -role shard"},
		{"-role coordinator -shard 1 " + dist, "-shard and -drain-timeout require -role shard"},
		{"-role coordinator -sample 2 " + dist, "-sample, -sample-seed, -format, -internal and -shards shape record ingest"},
		{"-role coordinator -sample-seed 7 " + dist, "-sample, -sample-seed, -format, -internal and -shards shape record ingest"},
		{"-role coordinator -format csv " + dist, "-sample, -sample-seed, -format, -internal and -shards shape record ingest"},
		{"-role coordinator -internal 10.0.0.0/8 " + dist, "-sample, -sample-seed, -format, -internal and -shards shape record ingest"},
		{"-role coordinator -shards 4 " + dist, "-sample, -sample-seed, -format, -internal and -shards shape record ingest"},
		{"-role shard -detectors community " + dist + " x", "-detectors, -vol-pct, -churn-pct and -hm-pct apply to -role coordinator"},
		{"-role shard -vol-pct 60 " + dist + " x", "-detectors, -vol-pct, -churn-pct and -hm-pct apply to -role coordinator"},
		{"-role shard -churn-pct 60 " + dist + " x", "-detectors, -vol-pct, -churn-pct and -hm-pct apply to -role coordinator"},
		{"-role shard -hm-pct 40 " + dist + " x", "-detectors, -vol-pct, -churn-pct and -hm-pct apply to -role coordinator"},
		{"-listen :0 -window 6h -format csv", "-format names a trace file's format"},
		{"-sample 0 x", "-sample must be >= 1"},
		{"-sample-seed 5 x", "-sample-seed requires -sample > 1"},
		{"-window 6h -sample 1 -sample-seed 5 x", "-sample-seed requires -sample > 1"},
		{"-window 6h -peers :7055 x", "-peers and -dist-shards require -role"},
		{"-window 6h -dist-shards 2 x", "-peers and -dist-shards require -role"},
		{"-window 6h -ingest-batch 8 x", "-ingest-batch requires -listen"},
		{"-window 6h -checkpoint-every 1m x", "-checkpoint-every and -wal-sync-every require -listen -state-dir"},
		{"-listen :0 -window 6h -wal-sync-every 1", "-checkpoint-every and -wal-sync-every require -listen -state-dir"},
		{"-listen :0 -window 6h -ingest-batch -1", "-ingest-batch must be >= 0"},
		{"-window 6h -shards -1 x", "-shards must be >= 0"},
		{"-listen :0 -window 6h -state-dir D -checkpoint-every -1m", "-checkpoint-every must be >= 0"},
		{"-listen :0 -window 6h -state-dir D -wal-sync-every 0", "-wal-sync-every must be >= 1"},
		{"-role shard -drain-timeout -1s " + dist + " x", "-drain-timeout must be >= 0"},
		{"-window -6h x", "-window must be >= 0"},
		{"-vol-pct -1 x", "-vol-pct, -churn-pct and -hm-pct must be >= 0"},
		{"-churn-pct -5 x", "-vol-pct, -churn-pct and -hm-pct must be >= 0"},
		{"-window 6h -hm-pct -0.5 x", "-vol-pct, -churn-pct and -hm-pct must be >= 0"},
		{"-vol-pct NaN -hm-pct NaN x", "-vol-pct, -churn-pct and -hm-pct must be >= 0"},
		{"-churn-pct NaN x", "-vol-pct, -churn-pct and -hm-pct must be >= 0"},
		{"-listen :0", "-listen requires -window"},
		{"-listen :0 -window 6h x", "-listen takes no trace file argument"},
		{"-role coordinator " + dist + " x", "-role coordinator takes no trace file argument"},
		{"-role worker " + dist + " x", "-role must be shard or coordinator"},
		{"-role shard -peers :7055 -window 6h -origin " + dayOrigin + " x", "-role requires -dist-shards"},
		{"-role shard -dist-shards 2 -window 6h -origin " + dayOrigin + " x", "-role requires -peers"},
		{"-role shard -peers :7055 -dist-shards 2 -origin " + dayOrigin + " x", "-role requires -window"},
		{"-window 6h", "expected exactly one trace file argument"},
		{"a b", "expected exactly one trace file argument"},
	} {
		// Rejected before any work: nothing binds, nothing opens "x".
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := run(ctx, strings.Fields(tc.args), io.Discard, io.Discard)
		cancel()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("plotfind %s: got %v, want %q", tc.args, err, tc.want)
		}
	}
}
