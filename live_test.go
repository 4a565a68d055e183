package plotters_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"plotters"
)

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
