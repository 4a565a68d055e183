package dist

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/metrics"
	"plotters/internal/wire"
)

// collector gathers a coordinator's emitted results; emit runs on the
// coordinator's connection and timeout goroutines.
type collector struct {
	mu      sync.Mutex
	results []*engine.Result
}

func (c *collector) emit(r *engine.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, r)
	return nil
}

func (c *collector) get() []*engine.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*engine.Result(nil), c.results...)
}

// clusterWindow is the i-th hour-long window of clusterCorpus.
func clusterWindow(i int) flow.Window {
	from := clusterT0.Add(time.Duration(i) * time.Hour)
	return flow.Window{From: from, To: from.Add(time.Hour)}
}

// shardSummaries runs the local phase over each shard's hosts in window
// w of records, one summary per shard of a shards-way split.
func shardSummaries(t *testing.T, records []flow.Record, w flow.Window, shards int) []*core.ShardSummary {
	t.Helper()
	cfg := clusterEngineConfig().Core
	sums := make([]*core.ShardSummary, shards)
	for s := range sums {
		src := flow.ExtractFeatureSet(w.Filter(records), flow.FeatureOptions{
			Hosts:        func(ip flow.IP) bool { return flow.ShardOf(ip, shards) == s },
			NewPeerGrace: cfg.NewPeerGrace,
		}, w)
		sum, err := core.LocalPass(src, cfg, s, shards)
		if err != nil {
			t.Fatal(err)
		}
		sums[s] = sum
	}
	return sums
}

// fakeShard is one hand-driven shard connection: it speaks the worker's
// side of the protocol frame by frame, so a test can send what no
// ShardWorker would.
type fakeShard struct {
	t      *testing.T
	conn   net.Conn
	seq    uint64
	served chan error // ServeConn's return
}

func dialFake(t *testing.T, coord *Coordinator, shard int) *fakeShard {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	// A coordinator that deadlocks fails the test instead of hanging it.
	client.SetDeadline(time.Now().Add(10 * time.Second))
	f := &fakeShard{t: t, conn: client, served: make(chan error, 1)}
	go func() { f.served <- coord.ServeConn(server) }()
	hb := encodeHello(hello{Version: WireVersion, Shard: shard, FP: FingerprintOf(clusterEngineConfig(), coord.cfg.Shards)})
	if err := wire.WriteFrame(client, frameHello, hb); err != nil {
		t.Fatal(err)
	}
	return f
}

// send writes one sequenced frame and waits for its ack. If the
// coordinator refuses the frame instead, send returns ServeConn's error.
func (f *fakeShard) send(typ uint16, body []byte) error {
	f.t.Helper()
	if err := wire.WriteFrame(f.conn, typ, seqPayload(f.seq, body)); err != nil {
		f.t.Fatalf("writing frame %d: %v", f.seq, err)
	}
	if _, _, err := wire.ReadFrame(f.conn, 1<<16); err != nil {
		select {
		case err := <-f.served:
			return err
		case <-time.After(10 * time.Second):
			f.t.Fatal("connection closed without ServeConn returning")
		}
	}
	f.seq++
	return nil
}

func (f *fakeShard) summary(index int, sum *core.ShardSummary) error {
	return f.send(frameSummary, EncodeSummary(index, sum))
}

func (f *fakeShard) mustSend(typ uint16, body []byte) {
	f.t.Helper()
	if err := f.send(typ, body); err != nil {
		f.t.Fatalf("frame %d refused: %v", f.seq, err)
	}
}

// waitWindows polls until the coordinator has emitted n windows.
func waitWindows(t *testing.T, coord *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.Windows() < n {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator emitted %d windows, want %d", coord.Windows(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A window one shard never reports is force-sealed WindowTimeout after
// its first summary: emitted once, Partial, with only the reporting
// shard's hosts. The straggler's summary for it, when it finally comes,
// is late (it was once counted as a duplicate), and the same summary
// resent after a reconnect is a duplicate. A timeout of 1 ns once
// panicked the process (a ticker at a quarter of it got a zero
// interval).
func TestCoordinatorTimeoutForceSeal(t *testing.T) {
	records := clusterCorpus()
	w0 := clusterWindow(0)
	for _, timeout := range []time.Duration{50 * time.Millisecond, 1} {
		t.Run(timeout.String(), func(t *testing.T) {
			reg := metrics.New()
			ecfg := clusterEngineConfig()
			ecfg.Core.Metrics = reg
			var out collector
			cl, err := NewDistCluster(CoordinatorConfig{Shards: 2, Engine: ecfg, WindowTimeout: timeout}, out.emit)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			feedShard := func(shard int) {
				for i := range records {
					if r := &records[i]; w0.Contains(r.Start) && flow.ShardOf(r.Src, 2) == shard {
						if err := cl.Workers[shard].Add(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := cl.Workers[shard].AdvanceTo(w0.To); err != nil {
					t.Fatal(err)
				}
				if err := cl.Workers[shard].Drain(10 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			feedShard(0)
			waitWindows(t, cl.Coordinator, 1)
			want := len(shardSummaries(t, records, w0, 2)[0].Hosts)
			got := out.get()
			if len(got) != 1 || got[0].Index != 0 || !got[0].Partial || got[0].Hosts != want {
				t.Fatalf("force-sealed %d results, first %+v; want window 0, Partial, %d hosts", len(got), got[0], want)
			}
			if n := reg.TakeSnapshot().Counters["dist/timeout_seals"]; n != 1 {
				t.Errorf("dist/timeout_seals = %d, want 1", n)
			}

			feedShard(1)
			if n := len(out.get()); n != 1 || cl.Coordinator.Windows() != 1 {
				t.Errorf("the straggler's summary re-emitted window 0: %d results", n)
			}
			counts := func(late, dup int64) {
				t.Helper()
				c := reg.TakeSnapshot().Counters
				if c["dist/summaries/late"] != late || c["dist/summaries/dup"] != dup {
					t.Errorf("dist/summaries/late = %d, dup = %d; want %d and %d",
						c["dist/summaries/late"], c["dist/summaries/dup"], late, dup)
				}
			}
			counts(1, 0)

			resend := dialFake(t, cl.Coordinator, 1)
			resend.mustSend(frameSummary, EncodeSummary(0, shardSummaries(t, records, w0, 2)[1]))
			counts(1, 1)
			if n := len(out.get()); n != 1 {
				t.Errorf("the resent summary re-emitted window 0: %d results", n)
			}
		})
	}
}

func TestNewCoordinatorRejectsNegativeTimeout(t *testing.T) {
	_, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: clusterEngineConfig(), WindowTimeout: -time.Second}, nil)
	if err == nil || !strings.Contains(err.Error(), "WindowTimeout") {
		t.Fatalf("negative WindowTimeout not refused by name: %v", err)
	}
}

// A summary inconsistent with the deployment or with the other shards is
// a descriptive error that closes its connection and emits nothing; the
// coordinator keeps serving the other connections.
func TestCoordinatorRejectsInconsistentSummaries(t *testing.T) {
	records := clusterCorpus()
	w0 := shardSummaries(t, records, clusterWindow(0), 2)
	shifted := *w0[1]
	shifted.Window = clusterWindow(1)
	foreign := *w0[0]
	foreign.Shard = 1
	fourWay := *w0[0]
	fourWay.Shards = 4

	for _, tc := range []struct {
		name string
		bad  func(t *testing.T, coord *Coordinator) error
		want string
	}{
		{"shard-count", func(t *testing.T, coord *Coordinator) error {
			return dialFake(t, coord, 0).summary(0, &fourWay)
		}, "4-shard split but this coordinator runs 2"},
		{"claims-other-shard", func(t *testing.T, coord *Coordinator) error {
			return dialFake(t, coord, 0).summary(0, &foreign)
		}, "claims shard 1 but arrived on shard 0's connection"},
		{"window-bounds", func(t *testing.T, coord *Coordinator) error {
			if err := dialFake(t, coord, 0).summary(0, w0[0]); err != nil {
				t.Fatal(err)
			}
			return dialFake(t, coord, 1).summary(0, &shifted)
		}, "window geometry disagrees"},
		{"unknown-frame", func(t *testing.T, coord *Coordinator) error {
			return dialFake(t, coord, 0).send(9, nil)
		}, "unknown frame type 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out collector
			coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: clusterEngineConfig()}, out.emit)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			err = tc.bad(t, coord)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ServeConn returned %v, want an error containing %q", err, tc.want)
			}
			if n := coord.Windows(); n != 0 || len(out.get()) != 0 {
				t.Fatalf("a refused frame emitted %d windows", n)
			}

			// Still serving: both shards report window 0 and it seals whole.
			for shard, sum := range w0 {
				f := dialFake(t, coord, shard)
				if err := f.summary(0, sum); err != nil {
					t.Fatal(err)
				}
				f.mustSend(frameWatermark, encodeWatermark(clusterWindow(0).To))
			}
			got := out.get()
			if len(got) != 1 || got[0].Partial || got[0].Hosts != len(w0[0].Hosts)+len(w0[1].Hosts) {
				t.Fatalf("after the refusal: %d results, want window 0 whole", len(got))
			}
		})
	}
}

// The coordinator reports the same per-window instruments as the
// single-process engine (engine.RunWindow), under "engine/globalpass":
// the stage and one child per detector, the window counters and gauges,
// and one suspects gauge per detector.
func TestCoordinatorEngineMetrics(t *testing.T) {
	records := clusterCorpus()
	reg := metrics.New()
	ecfg := clusterEngineConfig()
	ecfg.Core.Metrics = reg
	pd, err := core.NewPaperDetector(ecfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	commCfg := community.DefaultConfig()
	commCfg.Metrics = reg
	cd, err := community.New(commCfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Detectors = []core.Detector{pd, cd}
	var out collector
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: ecfg}, out.emit)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Window 1's summaries end the feed early (Partial): it waits for
	// Flush, and seals Partial.
	byWindow := [][]*core.ShardSummary{
		shardSummaries(t, records, clusterWindow(0), 2),
		shardSummaries(t, records, clusterWindow(1), 2),
	}
	for shard := 0; shard < 2; shard++ {
		byWindow[1][shard].Partial = true
		f := dialFake(t, coord, shard)
		for index, sums := range byWindow {
			if err := f.summary(index, sums[shard]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	results := out.get()
	windows := int64(len(results))
	if windows != 2 {
		t.Fatalf("emitted %d windows, want 2", windows)
	}
	snap := reg.TakeSnapshot()
	ran := map[string]int64{} // stage → times run
	for _, s := range snap.Stages {
		ran[s.Name] = s.Count
	}
	for _, stage := range []string{
		"engine/globalpass",
		"engine/globalpass/" + core.PaperName,
		"engine/globalpass/" + community.Name,
		"community/build", "community/propagate", "community/score",
	} {
		if got := ran[stage]; got != windows {
			t.Errorf("stage %s ran %d times, want %d", stage, got, windows)
		}
	}
	last := results[len(results)-1]
	if !last.Partial || results[0].Partial {
		t.Fatalf("Partial marks = %v, %v; want false, true", results[0].Partial, last.Partial)
	}
	for name, want := range map[string]int64{
		"engine/windows":         windows,
		"engine/windows/partial": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int{
		"engine/window_index":               last.Index,
		"engine/window_hosts":               last.Hosts,
		"engine/window_suspects":            len(last.Detection.Suspects),
		"engine/suspects/" + core.PaperName: len(last.Detections[0].Suspects),
		"engine/suspects/" + community.Name: len(last.Detections[1].Suspects),
	} {
		if got := snap.Gauges[name]; got != int64(want) {
			t.Errorf("gauge %s = %d, want %d", name, got, want)
		}
	}
}

// Frames numbered 0, 2, then 1 are one gap that loses one frame, and
// then that frame as a duplicate: the collector's sequence discipline,
// with no resequencing.
func TestCoordinatorSequenceGap(t *testing.T) {
	reg := metrics.New()
	ecfg := clusterEngineConfig()
	ecfg.Core.Metrics = reg
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: ecfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	f := dialFake(t, coord, 1)
	for _, seq := range []uint64{0, 2, 1} {
		f.seq = seq
		f.mustSend(frameWatermark, encodeWatermark(clusterT0))
	}
	want := []ShardSeq{{Shard: 0}, {Shard: 1, Seen: true, Gaps: 1, Lost: 1, Dups: 1, Connects: 1}}
	if got := coord.ShardSeqs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ShardSeqs = %+v, want %+v", got, want)
	}
	snap := reg.TakeSnapshot()
	for name, want := range map[string]int64{"dist/gaps": 1, "dist/lost_frames": 1, "dist/dup_frames": 1, "dist/frames": 3} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
