package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

var clusterT0 = time.Date(2009, 10, 6, 9, 0, 0, 0, time.UTC)

// clusterCorpus fabricates two detection windows of traffic: four bot
// families on distinct fixed timers (clusterable, machine-driven) plus
// human-like hosts with irregular exponential gaps, sorted by start
// time. Window length is 1h.
func clusterCorpus() []flow.Record {
	var records []flow.Record
	emit := func(src flow.IP, windowStart time.Time, period time.Duration, jitterNS int64, bytes uint64, peers int) {
		at := windowStart
		end := windowStart.Add(time.Hour)
		for i := 0; at.Before(end.Add(-2 * time.Second)); i++ {
			state := flow.StateEstablished
			if i%4 == 0 {
				state = flow.StateFailed // churn failures clear the reduction (humans never fail)
			}
			records = append(records, flow.Record{
				Src: src, Dst: flow.IP(0x08000000 + uint32(src)*100 + uint32(i%peers)),
				SrcPort: 40000, DstPort: 80, Proto: flow.TCP,
				Start: at, End: at.Add(time.Second),
				SrcPkts: 2, DstPkts: 2, SrcBytes: bytes, DstBytes: 100,
				State: state,
			})
			at = at.Add(period + time.Duration(int64(i)*jitterNS))
		}
	}
	for win := 0; win < 2; win++ {
		start := clusterT0.Add(time.Duration(win) * time.Hour)
		addr := flow.IP(1)
		for fam, period := range []time.Duration{5 * time.Second, 11 * time.Second, 17 * time.Second, 29 * time.Second} {
			for k := 0; k < 6; k++ {
				// Per-host byte variation so the θ_vol percentile has a
				// real distribution to cut.
				emit(addr, start, period, int64(fam+1)*1000, 80+uint64(addr)*5, 3)
				addr++
			}
		}
		rng := rand.New(rand.NewSource(int64(101 + win)))
		for i := 0; i < 30; i++ {
			at := start
			for j := 0; j < 60; j++ {
				records = append(records, flow.Record{
					Src: addr, Dst: flow.IP(0x0D000000 + uint32(j%5)),
					SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
					Start: at, End: at.Add(time.Second),
					SrcPkts: 1, DstPkts: 1, SrcBytes: 5000, DstBytes: 10,
					State: flow.StateEstablished,
				})
				at = at.Add(time.Duration((1 + rng.ExpFloat64()*8) * float64(time.Second)))
			}
			addr++
		}
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Start.Before(records[j].Start) })
	return records
}

func clusterEngineConfig() engine.Config {
	cfg := core.DefaultConfig()
	cfg.MinInterstitialSamples = 30
	cfg.CutFraction = 0.3
	cfg.VolPercentile = 70
	return engine.Config{
		Window: time.Hour,
		Origin: clusterT0,
		Core:   cfg,
	}
}

// singleProcessRun is the reference: the same stream through one
// WindowedDetector at cfg.
func singleProcessRun(t *testing.T, cfg engine.Config, records []flow.Record) []*engine.Result {
	t.Helper()
	var results []*engine.Result
	eng, err := engine.New(cfg, func(r *engine.Result) error {
		results = append(results, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if err := eng.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.AdvanceTo(clusterT0.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	return results
}

func compareRuns(t *testing.T, got, want []*engine.Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Index != w.Index || g.Window != w.Window || g.Hosts != w.Hosts || g.Records != w.Records || g.Partial != w.Partial {
			t.Errorf("%s: window %d header: got index=%d hosts=%d records=%d partial=%v, want index=%d hosts=%d records=%d partial=%v",
				label, i, g.Index, g.Hosts, g.Records, g.Partial, w.Index, w.Hosts, w.Records, w.Partial)
		}
		if !reflect.DeepEqual(g.Detection.Suspects, w.Detection.Suspects) {
			t.Errorf("%s: window %d suspects:\ngot  %v\nwant %v", label, i,
				g.Detection.Suspects.Sorted(), w.Detection.Suspects.Sorted())
		}
		if g.Detection.Reduction.Threshold != w.Detection.Reduction.Threshold ||
			g.Detection.Volume.Threshold != w.Detection.Volume.Threshold ||
			g.Detection.Churn.Threshold != w.Detection.Churn.Threshold ||
			g.Detection.HM.Threshold != w.Detection.HM.Threshold {
			t.Errorf("%s: window %d thresholds differ", label, i)
		}
		if !reflect.DeepEqual(g.Detection.HM.Clusters, w.Detection.HM.Clusters) {
			t.Errorf("%s: window %d θ_hm clusters differ", label, i)
		}
	}
}

// A 4-shard pipe cluster must reproduce the single-process windowed run
// bit for bit, across multiple windows.
func TestDistClusterMatchesSingleProcess(t *testing.T) {
	records := clusterCorpus()
	want := singleProcessRun(t, clusterEngineConfig(), records)
	if len(want) != 2 {
		t.Fatalf("reference run emitted %d windows, want 2", len(want))
	}
	if len(want[0].Detection.Suspects) == 0 {
		t.Fatal("reference run found no suspects — corpus does not exercise the pipeline")
	}

	var got []*engine.Result
	cl, err := NewDistCluster(CoordinatorConfig{Shards: 4, Engine: clusterEngineConfig()},
		func(r *engine.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := range records {
		if err := cl.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.AdvanceTo(clusterT0.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	compareRuns(t, got, want, "pipe cluster")

	if n := cl.Coordinator.Windows(); n != 2 {
		t.Errorf("coordinator emitted %d windows, want 2", n)
	}
	for _, ss := range cl.Coordinator.ShardSeqs() {
		if !ss.Seen {
			t.Errorf("shard %d never connected", ss.Shard)
		}
		if ss.Gaps != 0 {
			t.Errorf("shard %d: %d sequence gaps on a lossless transport", ss.Shard, ss.Gaps)
		}
	}
}

// The percentiles, the cut fraction and the diameter statistic are the
// coordinator's alone: a coordinator retuned away from every default
// accepts shards left at the defaults, and each window it emits is a
// single-process run at its own configuration.
func TestDistClusterRetunedCoordinator(t *testing.T) {
	records := clusterCorpus()
	shardCfg := clusterEngineConfig()
	shardCfg.Core = core.DefaultConfig()
	shardCfg.Core.MinInterstitialSamples = clusterEngineConfig().Core.MinInterstitialSamples
	coordCfg := shardCfg
	coordCfg.Core.VolPercentile = 70
	coordCfg.Core.ChurnPercentile = 60
	coordCfg.Core.HMPercentile = 40
	coordCfg.Core.CutFraction = 0.3
	coordCfg.Core.MaxDiameter = true
	want := singleProcessRun(t, coordCfg, records)
	if len(want) != 2 || len(want[0].Detection.Suspects) == 0 {
		t.Fatalf("reference run emitted %d windows, the first with no suspects — corpus does not exercise the pipeline", len(want))
	}
	if def := singleProcessRun(t, shardCfg, records); def[0].Detection.Volume.Threshold == want[0].Detection.Volume.Threshold {
		t.Fatal("the retuned coordinator's τ_vol equals the default's — the test cannot tell whose percentiles ran")
	}

	const shards = 3
	var out collector
	coord, err := NewCoordinator(CoordinatorConfig{Shards: shards, Engine: coordCfg}, out.emit)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	refused := make(chan error, 1)
	fail := func(err error) {
		t.Helper()
		select {
		case r := <-refused:
			t.Fatalf("the coordinator refused a default-configured shard: %v", r)
		case <-time.After(time.Second):
			t.Fatal(err)
		}
	}
	workers := make([]*ShardWorker, shards)
	for i := range workers {
		w, err := NewShardWorker(WorkerConfig{Shard: i, Shards: shards, Engine: shardCfg, Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				if err := coord.ServeConn(server); err != nil {
					select {
					case refused <- err:
					default:
					}
				}
			}()
			return client, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
	}
	for i := range records {
		if err := workers[flow.ShardOf(records[i].Src, shards)].Add(&records[i]); err != nil {
			fail(err)
		}
	}
	for _, w := range workers {
		if err := w.AdvanceTo(clusterT0.Add(2 * time.Hour)); err != nil {
			fail(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Windows() < len(want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			fail(fmt.Errorf("coordinator emitted %d windows, want %d", coord.Windows(), len(want)))
		}
	}
	compareRuns(t, out.get(), want, "retuned coordinator")
}

// Killing shard connections mid-run must change nothing about the
// output: the workers reconnect, resend their unacknowledged frames,
// and the coordinator deduplicates.
func TestDistClusterKillAndReconnect(t *testing.T) {
	records := clusterCorpus()
	want := singleProcessRun(t, clusterEngineConfig(), records)

	var got []*engine.Result
	cl, err := NewDistCluster(CoordinatorConfig{Shards: 4, Engine: clusterEngineConfig()},
		func(r *engine.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Feed the first window, punctuate so its summaries ship, then cut
	// every worker's connection before the second window's frames.
	boundary := clusterT0.Add(time.Hour)
	i := 0
	for ; i < len(records) && records[i].Start.Before(boundary); i++ {
		if err := cl.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.AdvanceTo(boundary); err != nil {
		t.Fatal(err)
	}
	for _, w := range cl.Workers {
		w.DropConnection()
	}
	for ; i < len(records); i++ {
		if err := cl.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.AdvanceTo(clusterT0.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	compareRuns(t, got, want, "kill-and-reconnect cluster")

	reconnected := 0
	for _, ss := range cl.Coordinator.ShardSeqs() {
		if ss.Connects >= 2 {
			reconnected++
		}
	}
	if reconnected == 0 {
		t.Error("no shard reconnected — the kill did not exercise the resend path")
	}
}

// Drain outlasts a coordinator that refuses connections for longer than
// one round of redials (maxDials × redialWait): it once returned the
// dial error after that round, whatever its timeout.
func TestDrainRedialsUntilDeadline(t *testing.T) {
	records := clusterCorpus()
	var out collector
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 1, Engine: clusterEngineConfig()}, out.emit)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var refuseUntil atomic.Int64 // Unix ns
	w, err := NewShardWorker(WorkerConfig{Shards: 1, Engine: clusterEngineConfig(), Dial: func() (net.Conn, error) {
		if time.Now().UnixNano() < refuseUntil.Load() {
			return nil, errors.New("connection refused")
		}
		client, server := net.Pipe()
		go coord.ServeConn(server)
		return client, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	feedWindow := func(i int) error {
		win := clusterWindow(i)
		for j := range records {
			if win.Contains(records[j].Start) {
				if err := w.Add(&records[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return w.AdvanceTo(win.To)
	}

	if err := feedWindow(0); err != nil {
		t.Fatal(err)
	}
	waitWindows(t, coord, 1)
	refuseUntil.Store(time.Now().Add(time.Hour).UnixNano())
	w.DropConnection()
	if err := feedWindow(1); err == nil {
		t.Fatal("window 1's summary was delivered to a coordinator refusing connections")
	}
	if w.Outstanding() == 0 {
		t.Fatal("nothing left queued for Drain to deliver")
	}
	refuseUntil.Store(time.Now().Add(1500 * time.Millisecond).UnixNano())
	if err := w.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain(5s) over a 1.5 s refusal: %v", err)
	}
	if n := w.Outstanding(); n != 0 {
		t.Errorf("%d frames unacknowledged after Drain", n)
	}
	waitWindows(t, coord, 2)
}

// A shard whose configuration the coordinator refuses learns why and
// stops: the refusal names the knob, reaches Drain at once instead of
// after its timeout, and the worker never redials.
func TestDistClusterRefusedShardStops(t *testing.T) {
	records := clusterCorpus()
	cfg := clusterEngineConfig()
	reg := metrics.New()
	cfg.Core.Metrics = reg
	cl, err := NewDistCluster(CoordinatorConfig{Shards: 2, Engine: clusterEngineConfig()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfg.Core.MinInterstitialSamples++
	odd, err := NewShardWorker(WorkerConfig{Shard: 1, Shards: 2, Engine: cfg, Dial: func() (net.Conn, error) {
		client, server := net.Pipe()
		go cl.Coordinator.ServeConn(server)
		return client, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Workers[1].Close()
	cl.Workers[1] = odd

	for i := range records {
		cl.Add(&records[i]) // the odd shard's refusal may surface here already
	}
	cl.AdvanceTo(clusterT0.Add(2 * time.Hour))
	start := time.Now()
	err = cl.Drain(5 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "min interstitial samples") {
		t.Fatalf("Drain = %v, want the coordinator's refusal naming min interstitial samples", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("Drain took %v to report the refusal", waited)
	}
	if n := reg.TakeSnapshot().Counters["dist/worker/connects"]; n != 1 {
		t.Errorf("dist/worker/connects = %d, want 1: a refused worker must not redial", n)
	}
}
