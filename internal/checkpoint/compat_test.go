package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/flow"
)

// appendSection frames a payload the way the encoder does — for
// building snapshots from hypothetical future builds.
func appendSection(b []byte, id uint16, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// Schema evolution contract: anything this build does not fully
// understand — a future container version, a section id it has never
// heard of, structural damage — fails with a descriptive error instead
// of a partial load. Silently dropping an unknown section would mean
// silently dropping state.
func TestSnapshotSchemaEvolution(t *testing.T) {
	valid, err := checkpoint.Encode(populatedSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func([]byte) []byte) []byte {
		return fn(append([]byte(nil), valid...))
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{
			name: "future container version",
			data: mutate(func(b []byte) []byte {
				binary.LittleEndian.PutUint16(b[4:6], 5)
				return b
			}),
			wantErr: "version 5",
		},
		{
			name: "unknown trailing section",
			data: mutate(func(b []byte) []byte {
				return appendSection(b, 9, []byte("opaque payload from the future"))
			}),
			wantErr: "unknown section id 9",
		},
		{
			name: "unknown empty trailing section",
			data: mutate(func(b []byte) []byte {
				return appendSection(b, 200, nil)
			}),
			wantErr: "unknown section id 200",
		},
		{
			name: "duplicate section",
			data: mutate(func(b []byte) []byte {
				// Re-frame the meta section (id 1) a second time; its
				// payload starts right after magic+version+frame header.
				n := binary.LittleEndian.Uint32(b[8:12])
				payload := append([]byte(nil), b[12:12+int(n)]...)
				return appendSection(b, 1, payload)
			}),
			wantErr: "duplicate section",
		},
		{
			name: "missing required sections",
			data: mutate(func(b []byte) []byte {
				// Keep only magic+version and the meta section.
				n := binary.LittleEndian.Uint32(b[8:12])
				return b[:12+int(n)+4]
			}),
			wantErr: "missing required sections",
		},
		{
			name:    "trailing garbage after last section",
			data:    mutate(func(b []byte) []byte { return append(b, 0xde, 0xad) }),
			wantErr: "truncated",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkpoint.Decode(tc.data)
			if err == nil {
				t.Fatal("decode of incompatible snapshot succeeded")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// The snapshots earlier builds wrote, each of synthStream(seed 18,
// 50 min) — 454 records — through testEngineConfig() with its explicit
// origin, so two sealed panes and pending records are in them. snapshot_v1_pr18.bin was
// written by the commit before the feature layer merged each host's two
// per-destination maps into one table and replaced the reorder heap
// with keys over a record slab; snapshot_v2_pr42.bin by the commit
// before version 3 carried each fact once; snapshot_v3_pr45.bin by the
// commit before version 4 dropped first-seen carrying.
var oldSnapshots = []struct {
	file    string
	version uint16
}{
	{"testdata/snapshot_v1_pr18.bin", 1},
	{"testdata/snapshot_v2_pr42.bin", 2},
	{"testdata/snapshot_v3_pr45.bin", 3},
}

// Restoring an older build's snapshot into this build's engine and
// snapshotting again has to re-export every field version 3 keeps
// exactly: decoding the result gives back the old file's decoded state,
// pending records in the same order included, and the bytes equal a
// direct re-encoding of it. Left out, because version 4 drops them, are
// the carry-first-seen flag and anchor lists (off and empty in every
// file), each shard's earliest start and record count (and version 1's
// arrival counter and numbers), and each host's last-seen time,
// successful flows and peer count, which version 3 on derives from the
// flows less the failed flows and from the destination list's length. Each file must
// also decode to the state this build's engine holds after the same
// records, which the decoder cannot fake: that proves the two old
// destination lists are zipped into one with every time in place.
func TestSnapshotFromParentRestoresAndReencodes(t *testing.T) {
	records := synthStream(rand.New(rand.NewSource(18)), baseTime(), 50*time.Minute)
	fresh := newTestEngine(t, "", nil)
	for i := range records {
		if err := fresh.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, fx := range oldSnapshots {
		data, err := os.ReadFile(fx.file)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(data[4:]); v != fx.version {
			t.Fatalf("%s is version %d, want %d", fx.file, v, fx.version)
		}
		snap, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if !reflect.DeepEqual(snap.Engine, fresh.State()) {
			t.Fatalf("%s decodes to a different state than this build's engine holds after the same %d records", fx.file, len(records))
		}
		pending, dests := 0, 0
		for _, sh := range snap.Engine.Store.Shards {
			pending += len(sh.Pending)
			for _, h := range sh.Hosts {
				dests += len(h.Dests)
			}
		}
		if len(snap.Engine.Recent) == 0 || pending == 0 || dests == 0 {
			t.Fatalf("%s is too thin to prove anything: %d sealed panes, %d pending, %d open-pane destinations",
				fx.file, len(snap.Engine.Recent), pending, dests)
		}

		eng := newTestEngine(t, "", nil)
		if err := snap.RestoreEngine(eng); err != nil {
			t.Fatal(err)
		}
		again, err := checkpoint.Encode(&checkpoint.Snapshot{
			Meta:      snap.Meta,
			Engine:    eng.State(),
			Exporters: snap.Exporters,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(again[4:]); v != 4 {
			t.Fatalf("re-encoded as version %d, want 4", v)
		}
		direct, err := checkpoint.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, direct) {
			t.Fatalf("%s: restored and re-encoded, the snapshot differs from the file's state encoded directly (%d vs %d bytes)", fx.file, len(again), len(direct))
		}
		back, err := checkpoint.Decode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, snap) {
			t.Fatalf("%s: the re-encoded snapshot decodes to a different state", fx.file)
		}
	}
}

// An engine restored from an older build's snapshot must carry on
// exactly as the engine that wrote it would have: fed the stream the
// fixture was cut from, then a further 40 minutes, one engine emits the
// same windows after the fixture's point as the restored one does.
func TestSnapshotV1ResumesLikeAnUnbrokenRun(t *testing.T) {
	resumesLikeAnUnbrokenRun(t, oldSnapshots[0].file)
}

func TestSnapshotV2ResumesLikeAnUnbrokenRun(t *testing.T) {
	resumesLikeAnUnbrokenRun(t, oldSnapshots[1].file)
}

func TestSnapshotV3ResumesLikeAnUnbrokenRun(t *testing.T) {
	resumesLikeAnUnbrokenRun(t, oldSnapshots[2].file)
}

// fixtureCut is how many records the snapshot fixtures cover:
// synthStream(seed 18, 50 min).
const fixtureCut = 454

// unbrokenRun is the stream the snapshot fixtures were cut from and 40
// minutes more, and the windows one engine fed all of it emits after
// the fixtures' point.
func unbrokenRun(t *testing.T) ([]flow.Record, []windowKey) {
	t.Helper()
	records := synthStream(rand.New(rand.NewSource(18)), baseTime(), 50*time.Minute)
	if len(records) != fixtureCut {
		t.Fatalf("synthStream(seed 18, 50 min) has %d records, the fixtures hold %d", len(records), fixtureCut)
	}
	records = append(records, synthStream(rand.New(rand.NewSource(19)), baseTime().Add(50*time.Minute), 40*time.Minute)...)
	var want []windowKey
	whole := newTestEngine(t, "", &want)
	feed(t, whole.Add, records[:fixtureCut])
	before := len(want)
	feed(t, whole.Add, records[fixtureCut:])
	if err := whole.Flush(); err != nil {
		t.Fatal(err)
	}
	return records, want[before:]
}

func feed(t *testing.T, add func(*flow.Record) error, records []flow.Record) {
	t.Helper()
	for i := range records {
		if err := add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func resumesLikeAnUnbrokenRun(t *testing.T, file string) {
	records, want := unbrokenRun(t)
	snap, err := checkpoint.Read(file)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.WALSeq != fixtureCut {
		t.Fatalf("the fixture covers %d records, want %d", snap.Meta.WALSeq, fixtureCut)
	}
	var got []windowKey
	resumed := newTestEngine(t, "", &got)
	if err := snap.RestoreEngine(resumed); err != nil {
		t.Fatal(err)
	}
	feed(t, resumed.Add, records[fixtureCut:])
	if err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run emitted\n%+v\nthe unbroken run, after the fixture's point:\n%+v", got, want)
	}
}

// A state directory an older build left — its snapshot, and a version 1
// log of the records it took after it — recovers to the windows the
// unbroken run emits, and holds a version 2 log afterwards: Recover
// snapshots what the old log replayed and rotates it.
func TestManagerRecoversVersion1Log(t *testing.T) {
	records, want := unbrokenRun(t)
	const logged = fixtureCut + 200 // the records the old log holds
	dir := t.TempDir()
	snapshot, err := os.ReadFile(oldSnapshots[2].file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpoint.SnapshotFile), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	walFile := filepath.Join(dir, checkpoint.WALFile)
	if err := os.WriteFile(walFile, walLog(1, fixtureCut, chunks(records[fixtureCut:logged], 1)...), 0o644); err != nil {
		t.Fatal(err)
	}

	var got []windowKey
	m, err := checkpoint.NewManager(managerConfig(nil), newTestEngine(t, dir, &got))
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded || info.Replayed != logged-fixtureCut {
		t.Fatalf("recovered %+v, want the snapshot and %d replayed records", info, logged-fixtureCut)
	}
	if log, err := os.ReadFile(walFile); err != nil || !bytes.Equal(log, walLog(2, logged)) {
		t.Fatalf("after recovery the log is %x (%v), want an empty version 2 log based at %d", log, err, logged)
	}
	if snap, err := checkpoint.Read(m.SnapshotPath()); err != nil || snap.Meta.WALSeq != logged {
		t.Fatalf("after recovery the snapshot covers %v records (%v), want %d", snap.Meta.WALSeq, err, logged)
	}
	feed(t, m.Add, records[logged:])
	if err := errors.Join(m.Flush(), m.Close()); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered run emitted\n%+v\nthe unbroken run, after the snapshot's point:\n%+v", got, want)
	}
}

// snapshot_v2_carry_pr42.bin is the v2 fixture's 454 records written by
// the same commit with carry-first-seen on: its meta sets the flag and
// its shards hold the hosts' carried anchors. This build restarts the
// grace period every window, so it has nowhere to restore them to and
// must refuse the file by name — through the flag, and through the
// anchor lists alone when the flag is cleared.
func TestSnapshotCarryingFirstSeenRefused(t *testing.T) {
	carried, err := os.ReadFile("testdata/snapshot_v2_carry_pr42.bin")
	if err != nil {
		t.Fatal(err)
	}
	// The meta section's payload follows magic, version and its frame
	// header; the flag is its byte after Created, WALSeq, four
	// durations and the shard count.
	const metaAt, flagAt = 12, 9 + 8 + 4*8 + 4
	if n := binary.LittleEndian.Uint32(carried[8:12]); n != flagAt+2 || carried[metaAt+flagAt] != 1 {
		t.Fatalf("meta section is %d bytes, flag byte %d: not a version 2 meta with the flag set", n, carried[metaAt+flagAt])
	}
	cleared := append([]byte(nil), carried...)
	cleared[metaAt+flagAt] = 0
	meta := cleared[metaAt : metaAt+flagAt+2]
	binary.LittleEndian.PutUint32(cleared[metaAt+len(meta):], crc32.ChecksumIEEE(meta))

	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"flag set", carried, "snapshot taken with carry-first-seen on"},
		{"anchors only", cleared, "carry-first-seen anchors"},
	} {
		snap, err := checkpoint.Decode(tc.data)
		if err == nil {
			t.Fatalf("%s: decoded a snapshot carrying first-seen anchors (%d shards)", tc.name, len(snap.Engine.Store.Shards))
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
