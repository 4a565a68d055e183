// Kill-and-resume golden test for the durable-state subsystem: a live
// run over the seed-42 wire corpus is killed mid-stream (the manager is
// abandoned without Flush or Close, exactly what SIGKILL leaves behind:
// whatever sat in the WAL's buffer is gone) and a second process
// recovers from the state directory and finishes the stream from where
// the log ends. The merged per-window outcome must be bit-identical to
// the uninterrupted run pinned in testdata/collector_golden.json —
// recovery may re-emit windows (at-least-once delivery), but every
// re-emission must match the original and nothing may drift.
package plotters_test

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"plotters"
)

// mergeWindows folds the window summaries from multiple process lives
// into one run, deduplicating on the window index. A window emitted
// twice (once before the kill, once re-emitted by WAL replay) must be
// identical both times — recovery re-delivers, it never rewrites.
func mergeWindows(t *testing.T, runs ...[]collectorWindow) []collectorWindow {
	t.Helper()
	byIdx := make(map[int]collectorWindow)
	for _, run := range runs {
		for _, w := range run {
			if prev, ok := byIdx[w.Index]; ok {
				if !reflect.DeepEqual(prev, w) {
					t.Fatalf("window %d re-emitted differently across the crash:\nfirst  %+v\nsecond %+v", w.Index, prev, w)
				}
				continue
			}
			byIdx[w.Index] = w
		}
	}
	merged := make([]collectorWindow, 0, len(byIdx))
	for _, w := range byIdx {
		merged = append(merged, w)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].Index < merged[b].Index })
	return merged
}

func TestCheckpointKillAndResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis takes a few seconds; skipped in -short mode")
	}
	wire, _, w, pipe := collectorCorpus(t)
	dir := t.TempDir()
	ckptAt := len(wire) / 3     // last checkpoint the first life commits
	killAt := len(wire) * 2 / 3 // records ingested when the kill lands

	// First life: ingest through the manager, checkpoint once a third
	// of the way in, keep going, then die without warning — no Flush,
	// no final Checkpoint, no Close. The WAL holds everything past the
	// snapshot but the frames still in its buffer: fewer than syncEvery.
	const syncEvery = 256
	var life1 []collectorWindow
	eng1 := collectorEngine(t, pipe, w, &life1)
	mgr1, err := plotters.NewCheckpointManager(plotters.CheckpointConfig{Dir: dir, SyncEvery: syncEvery}, eng1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := mgr1.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("cold start found state: %+v", info)
	}
	visibleAt := 0 // records accepted when life 1 last emitted a window
	for i := 0; i < killAt; i++ {
		emitted := len(life1)
		if err := mgr1.Add(&wire[i]); err != nil {
			t.Fatal(err)
		}
		if len(life1) > emitted {
			visibleAt = i + 1
		}
		if i == ckptAt {
			if err := mgr1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// SIGKILL: mgr1 and eng1 are simply abandoned here.

	// Second life: a fresh engine with the same configuration recovers
	// the snapshot plus the WAL tail, then finishes the stream.
	var life2 []collectorWindow
	eng2 := collectorEngine(t, pipe, w, &life2)
	mgr2, err := plotters.NewCheckpointManager(plotters.CheckpointConfig{Dir: dir}, eng2)
	if err != nil {
		t.Fatal(err)
	}
	info, err = mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded {
		t.Fatal("recovery did not load the snapshot")
	}
	// The kill lost only the buffered tail, and nothing an emitted window
	// was built on.
	logged := ckptAt + 1 + info.Replayed
	if logged <= killAt-syncEvery || logged > killAt {
		t.Fatalf("log ends at record %d: want within %d of the kill at %d", logged, syncEvery, killAt)
	}
	if logged < visibleAt {
		t.Fatalf("log ends at record %d, but life 1 emitted a window built on %d", logged, visibleAt)
	}
	for i := logged; i < len(wire); i++ {
		if err := mgr2.Add(&wire[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr2.AdvanceTo(w.To); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}

	// The merged lives must reproduce the uninterrupted loopback run
	// exactly — same windows, same hosts, same suspects.
	got := collectorGolden{WireRecords: len(wire), Windows: mergeWindows(t, life1, life2)}
	raw, err := os.ReadFile(collectorGoldenPath)
	if err != nil {
		t.Fatalf("%v (run TestCollectorLoopbackGolden with -update to create it)", err)
	}
	var want collectorGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kill-and-resume outcome differs from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}

	// CI uploads the final checkpoint as a build artifact so a format
	// regression leaves evidence to bisect with.
	if out := os.Getenv("CHECKPOINT_ARTIFACT_DIR"); out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{plotters.CheckpointSnapshotFile, plotters.CheckpointWALFile} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("checkpoint artifacts copied to %s", out)
	}
}

// TestRunLiveStopsOnCheckpointFailure: a periodic checkpoint that fails
// must end the live run with that error, not leave the collector
// ingesting without snapshots until the operator's Ctrl-C. The state
// directory's snapshot temp path is pre-created as a directory, so
// recovery cold-starts fine and the first checkpoint write fails.
func TestRunLiveStopsOnCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "snapshot.pckp.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := plotters.LiveConfig{
		Addr:            "127.0.0.1:0",
		Engine:          plotters.EngineConfig{Window: time.Hour, Core: plotters.DefaultConfig(), StateDir: dir},
		CheckpointEvery: 10 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := plotters.RunLive(context.Background(), cfg, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "snapshot.pckp.tmp") {
			t.Fatalf("RunLive returned %v, want the checkpoint write error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunLive still collecting 10s after the first periodic checkpoint failed")
	}
}

// TestRunLiveShardCountFollowsSnapshot: a state directory written under
// one resolved shard count must recover on a host whose default ("one
// per CPU") resolves differently — the operator never chose a count —
// while an explicit, different -shards keeps failing loudly.
func TestRunLiveShardCountFollowsSnapshot(t *testing.T) {
	dir := t.TempDir()
	run := func(shards int) (*plotters.LiveReport, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		return plotters.RunLive(ctx, plotters.LiveConfig{
			Addr:   "127.0.0.1:0",
			Engine: plotters.EngineConfig{Window: time.Hour, Shards: shards, Core: plotters.DefaultConfig(), StateDir: dir},
			Ready:  func(net.Addr, *plotters.CheckpointRecovery) { cancel() },
		}, nil)
	}
	// The "other host": one more shard than this one's default.
	if _, err := run(runtime.NumCPU() + 1); err != nil {
		t.Fatal(err)
	}
	rep, err := run(0)
	if err != nil {
		t.Fatalf("restart with the default shard count: %v", err)
	}
	if !rep.Recovered.SnapshotLoaded {
		t.Error("restart did not load the snapshot")
	}
	if _, err := run(runtime.NumCPU() + 2); err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Errorf("explicit mismatched shard count: got %v, want an error naming the shard count", err)
	}
}
