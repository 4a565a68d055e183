package checkpoint_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

func managerConfig(reg *metrics.Registry) checkpoint.Config {
	return checkpoint.Config{Metrics: reg, Now: func() time.Time { return baseTime() }}
}

// mergeByIndex layers re-emitted windows (recovery's at-least-once
// delivery) over the originals, verifying duplicates are identical.
func mergeByIndex(t *testing.T, runs ...[]windowKey) []windowKey {
	t.Helper()
	byIndex := map[int]windowKey{}
	var order []int
	for _, run := range runs {
		for _, w := range run {
			if prev, ok := byIndex[w.Index]; ok {
				if prev != w {
					t.Fatalf("window %d re-emitted with different content:\nfirst  %+v\nsecond %+v", w.Index, prev, w)
				}
				continue
			}
			byIndex[w.Index] = w
			order = append(order, w.Index)
		}
	}
	out := make([]windowKey, 0, len(order))
	for _, i := range order {
		out = append(out, byIndex[i])
	}
	return out
}

// The crash-recovery contract, end to end in one process: run a stream
// through a managed engine, checkpoint mid-stream, keep going, then
// "kill" the process (abandon manager and engine without any shutdown
// courtesy — frames still in the WAL's buffer die with it), recover into
// a fresh engine, finish the stream from where the log ends, and compare
// every emitted window against an uninterrupted run. SyncEvery 1 is the
// strict mode: the log holds every accepted record. Above it the kill
// may lose fewer than SyncEvery records, none of which an emitted window
// was built on.
func TestManagerKillAndResume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	records := synthStream(rng, baseTime(), 4*time.Hour)

	var want []windowKey
	ref := newTestEngine(t, "", &want)
	for i := range records {
		if err := ref.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	checkpointAt := len(records) / 3
	for _, killAt := range []int{checkpointAt, checkpointAt + 1, len(records) / 2, len(records) - 1} {
		t.Run(fmt.Sprintf("killAt%d", killAt), func(t *testing.T) {
			for _, syncEvery := range []int{1, 100, 1 << 30} {
				t.Run(fmt.Sprintf("sync%d", syncEvery), func(t *testing.T) {
					killAndResume(t, records, want, checkpointAt, killAt, syncEvery)
				})
			}
		})
	}
}

// killAndResume is one life-and-a-half of TestManagerKillAndResume: a
// checkpoint after checkpointAt records, a kill after killAt.
func killAndResume(t *testing.T, records []flow.Record, want []windowKey, checkpointAt, killAt, syncEvery int) {
	dir := t.TempDir()
	cfg := managerConfig(nil)
	cfg.SyncEvery = syncEvery

	// First life: ingest to killAt, checkpoint partway through.
	var before []windowKey
	eng1 := newTestEngine(t, dir, &before)
	m1, err := checkpoint.NewManager(cfg, eng1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	visibleAt := 0 // records accepted when life 1 last emitted a window
	for i := 0; i < killAt; i++ {
		emitted := len(before)
		if err := m1.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
		if len(before) > emitted {
			visibleAt = i + 1
		}
		if i == checkpointAt-1 {
			if err := m1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Kill: no Flush, no final Checkpoint, no Close.

	// Second life: fresh engine, recover, finish the stream.
	var after []windowKey
	eng2 := newTestEngine(t, dir, &after)
	m2, err := checkpoint.NewManager(cfg, eng2)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded {
		t.Fatal("recovery found no snapshot")
	}
	logged := checkpointAt + info.Replayed
	if syncEvery == 1 && logged != killAt {
		t.Fatalf("strict mode replayed %d records, want %d", info.Replayed, killAt-checkpointAt)
	}
	// A full buffer is written out, so it never holds 64 KB of these
	// 71-byte frames, whatever the sync cadence.
	if bound := min(syncEvery, 64<<10/71); logged > killAt || killAt-logged >= bound {
		t.Fatalf("log ends at record %d: want within %d of the kill at %d", logged, bound, killAt)
	}
	if logged < visibleAt {
		t.Fatalf("log ends at record %d, but life 1 emitted a window built on %d", logged, visibleAt)
	}
	if eng2.Windows() != eng1.Windows() {
		t.Fatalf("recovered engine emitted %d windows, the killed one %d", eng2.Windows(), eng1.Windows())
	}
	if syncEvery == 1 && eng2.Dropped() != eng1.Dropped() {
		t.Fatalf("recovered engine dropped %d records, the killed one %d", eng2.Dropped(), eng1.Dropped())
	}
	for i := logged; i < len(records); i++ {
		if err := m2.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	got := mergeByIndex(t, before, after)
	if len(got) != len(want) {
		t.Fatalf("emitted %d distinct windows, want %d\ngot  %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d diverged after recovery:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// Recovery must also survive a torn WAL tail: the half-written frame is
// dropped, and re-adding that record continues cleanly.
func TestManagerRecoverTornWAL(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	records := synthStream(rng, baseTime(), time.Hour)
	dir := t.TempDir()

	eng1 := newTestEngine(t, dir, nil)
	m1, err := checkpoint.NewManager(managerConfig(nil), eng1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	cut := len(records) / 2
	for i := 0; i < cut; i++ {
		if err := m1.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the last frame in half.
	wal := filepath.Join(dir, checkpoint.WALFile)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	eng2 := newTestEngine(t, dir, nil)
	m2, err := checkpoint.NewManager(managerConfig(nil), eng2)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !info.WALTorn {
		t.Fatal("torn WAL not reported")
	}
	if info.Replayed != cut-1 {
		t.Fatalf("replayed %d, want %d (torn frame dropped)", info.Replayed, cut-1)
	}
	// The torn record and the rest of the stream go back in cleanly.
	for i := cut - 1; i < len(records); i++ {
		if err := m2.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// A manager must refuse to recover a snapshot into an engine with a
// different configuration, naming the mismatched knob.
func TestManagerRecoverConfigMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	records := synthStream(rng, baseTime(), time.Hour)
	dir := t.TempDir()

	eng1 := newTestEngine(t, dir, nil)
	m1, err := checkpoint.NewManager(managerConfig(nil), eng1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if err := m1.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testEngineConfig()
	cfg.CarryFirstSeen = false
	cfg.StateDir = dir
	eng2, err := engine.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := checkpoint.NewManager(managerConfig(nil), eng2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m2.Recover()
	if err == nil {
		t.Fatal("recovery under a different configuration did not fail")
	}
	if !strings.Contains(err.Error(), "carry-first-seen") {
		t.Fatalf("mismatch error %q does not name the knob", err)
	}
}

// Ordering guards: ingest before recovery is a bug, as is recovering
// twice.
func TestManagerOrderingGuards(t *testing.T) {
	eng := newTestEngine(t, t.TempDir(), nil)
	m, err := checkpoint.NewManager(managerConfig(nil), eng)
	if err != nil {
		t.Fatal(err)
	}
	rec := flow.Record{Src: 1, Dst: 2, Proto: flow.TCP, Start: baseTime(), End: baseTime().Add(time.Second), State: flow.StateEstablished}
	if err := m.Add(&rec); err == nil {
		t.Fatal("Add before Recover did not fail")
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint before Recover did not fail")
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Recover(); err == nil {
		t.Fatal("second Recover did not fail")
	}
}

// A managed run must populate the full checkpoint/... instrument set:
// appends counted per record, writes and bytes per write(2), so their
// ratio is the batching an operator can read off the real binary.
func TestManagerMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	records := synthStream(rng, baseTime(), time.Hour)
	reg := metrics.New()
	eng := newTestEngine(t, t.TempDir(), nil)
	cfg := managerConfig(reg)
	cfg.SyncEvery = 256
	m, err := checkpoint.NewManager(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if err := m.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more after the rotation, so Close has a frame to write.
	if err := m.Add(&records[len(records)-1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	appends := reg.Counter("checkpoint/wal_appends").Value()
	if appends != int64(len(records)+1) {
		t.Errorf("wal_appends = %d, want %d", appends, len(records)+1)
	}
	// A write per sync, per sealed pane, at the checkpoint and on Close:
	// a handful for these ~600 records, never one each.
	if writes := reg.Counter("checkpoint/wal_writes").Value(); writes < 2 || writes*20 > appends {
		t.Errorf("wal_writes = %d for %d appends, want a few dozen times fewer", writes, appends)
	}
	if got, want := reg.Counter("checkpoint/wal_bytes").Value(), appends*71; got != want {
		t.Errorf("wal_bytes = %d, want %d (every frame written once)", got, want)
	}
	if got := reg.Gauge("checkpoint/wal_size_bytes").Value(); got != 14+71 {
		t.Errorf("wal_size_bytes = %d, want the header and the one frame since the rotation", got)
	}
	if got := reg.Counter("checkpoint/snapshots").Value(); got != 1 {
		t.Errorf("snapshots = %d, want 1", got)
	}
	if reg.Gauge("checkpoint/snapshot_bytes").Value() == 0 {
		t.Error("snapshot_bytes gauge not set")
	}
	if reg.Histogram("checkpoint/snapshot_duration").Count() != 1 {
		t.Error("snapshot_duration not observed")
	}
}

// The WAL-before-visibility contract, checked from where a consumer
// stands: inside the emit callback, the log on disk already holds every
// record accepted so far — the one whose arrival sealed this window
// included — however the seal was driven. SyncEvery is out of reach, so
// only the flush ahead of each seal can have put them there.
func TestManagerLogsBeforeEveryEmit(t *testing.T) {
	records := synthStream(rand.New(rand.NewSource(11)), baseTime(), 4*time.Hour)
	for _, slide := range []time.Duration{0, 20 * time.Minute} {
		t.Run(fmt.Sprintf("slide%v", slide), func(t *testing.T) {
			dir := t.TempDir()
			added, emits := 0, 0
			ecfg := testEngineConfig()
			ecfg.Slide = slide
			ecfg.StateDir = dir
			eng, err := engine.New(ecfg, func(res *engine.Result) error {
				emits++
				data, err := os.ReadFile(filepath.Join(dir, checkpoint.WALFile))
				if err != nil {
					return err
				}
				info, err := checkpoint.ReplayWALBytes(data, nil)
				if err != nil {
					return err
				}
				if info.Torn || info.LastSeq != uint64(added) {
					t.Errorf("window %d emitted with %d records accepted, but the log ends at %d (torn %v)",
						res.Index, added, info.LastSeq, info.Torn)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := managerConfig(nil)
			cfg.SyncEvery = 1 << 30
			m, err := checkpoint.NewManager(cfg, eng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Recover(); err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			feed := func(recs []flow.Record) {
				t.Helper()
				for i := range recs {
					added++
					if err := m.Add(&recs[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// expectEmits fails unless step made the engine emit: each way
			// of driving a seal has to be seen to drive one.
			expectEmits := func(how string, step func()) {
				t.Helper()
				was := emits
				step()
				if emits == was {
					t.Fatalf("%s emitted no window: the test proves nothing about it", how)
				}
			}
			cut := len(records) * 2 / 3
			expectEmits("record-driven sealing", func() { feed(records[:cut]) })
			expectEmits("AdvanceTo", func() {
				// Past the end of the frontier's pane (windows are aligned
				// on the first record, seconds after baseTime) but short of
				// the stream's; the stragglers it strands are logged all
				// the same.
				if err := m.AdvanceTo(baseTime().Add(3*time.Hour + 5*time.Minute)); err != nil {
					t.Fatal(err)
				}
			})
			feed(records[cut:])
			expectEmits("Flush", func() {
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
