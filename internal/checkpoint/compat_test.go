package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/flowio"
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
				binary.LittleEndian.PutUint16(b[4:6], 3)
				return b
			}),
			wantErr: "version 3",
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

// testdata/snapshot_v1_pr18.bin is a version 1 snapshot, written by
// the commit before the feature layer merged each host's two
// per-destination maps into one table and replaced the reorder heap
// with keys over a record slab: 454 records of synthStream(seed 18,
// 50 min) through testEngineConfig(), so two sealed panes, pending
// records and carried anchors are all in it. Version 2 changed only the
// pending records. Restoring the old build's snapshot into this build's
// engine and snapshotting again has to give back the file exactly,
// except for the version field and each shard's pending section — and
// that must list the file's pending records in the same order, cut down
// to the fields the features read. That proves the merged table
// re-exports both address-sorted lists, and every time in them, as the
// old maps did, and that the pending lists lose no record.
func TestSnapshotFromParentRestoresAndReencodes(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot_v1_pr18.bin")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	pending, anchors, dests := 0, 0, 0
	for _, sh := range snap.Engine.Store.Shards {
		pending += len(sh.Pending)
		anchors += len(sh.Anchors)
		for _, h := range sh.Hosts {
			dests += len(h.FirstContact)
		}
	}
	if len(snap.Engine.Recent) == 0 || pending == 0 || anchors == 0 || dests == 0 {
		t.Fatalf("fixture is too thin to prove anything: %d sealed panes, %d pending, %d anchors, %d open-pane destinations",
			len(snap.Engine.Recent), pending, anchors, dests)
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
	oldVersion, oldKept, oldPending, err := checkpoint.SplitPending(data)
	if err != nil {
		t.Fatal(err)
	}
	newVersion, newKept, newPending, err := checkpoint.SplitPending(again)
	if err != nil {
		t.Fatal(err)
	}
	if oldVersion != 1 || newVersion != 2 {
		t.Fatalf("versions %d → %d, want 1 → 2", oldVersion, newVersion)
	}
	if !bytes.Equal(newKept, oldKept) {
		t.Fatalf("outside the pending sections, the re-encoded snapshot differs from the parent build's (%d vs %d bytes)", len(newKept), len(oldKept))
	}
	if len(newPending) != len(oldPending) {
		t.Fatalf("%d shards' pending sections, the parent build wrote %d", len(newPending), len(oldPending))
	}
	for i := range oldPending {
		want := pendingV1(t, oldPending[i])
		if got := pendingV2(t, newPending[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: pending section lists\n%+v\nwant the parent's records, cut down, in order:\n%+v", i, got, want)
		}
	}
}

// pendingV1 reads a version 1 pending list — whole records, each with an
// arrival number — and cuts each record down to what the features read.
func pendingV1(t *testing.T, b []byte) []flow.PendingState {
	t.Helper()
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	var out []flow.PendingState
	for range n {
		rec, used, err := flowio.DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		b = b[used+8:]
		out = append(out, flow.PendingState{
			Src: rec.Src, Dst: rec.Dst, Start: rec.Start, SrcBytes: rec.SrcBytes, Failed: rec.Failed(),
		})
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the version 1 pending list", len(b))
	}
	return out
}

// pendingV2 reads a version 2 pending list: per entry the initiator and
// destination (u32 each), the start (zero flag, Unix ns), the bytes
// uploaded (u64) and the failed flag.
func pendingV2(t *testing.T, b []byte) []flow.PendingState {
	t.Helper()
	le := binary.LittleEndian
	n := le.Uint32(b)
	b = b[4:]
	var out []flow.PendingState
	for range n {
		if len(b) < 26 || b[8] != 1 || b[25] > 1 {
			t.Fatalf("malformed version 2 pending entry % x", b[:min(len(b), 26)])
		}
		out = append(out, flow.PendingState{
			Src: flow.IP(le.Uint32(b)), Dst: flow.IP(le.Uint32(b[4:])),
			Start:    time.Unix(0, int64(le.Uint64(b[9:]))).UTC(),
			SrcBytes: le.Uint64(b[17:]),
			Failed:   b[25] == 1,
		})
		b = b[26:]
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the version 2 pending list", len(b))
	}
	return out
}

// An engine restored from the version 1 fixture must carry on exactly
// as the engine that wrote it would have: fed the stream the fixture
// was cut from, then a further 40 minutes, one engine emits the same
// windows after the fixture's point as the restored one does.
func TestSnapshotV1ResumesLikeAnUnbrokenRun(t *testing.T) {
	const cut = 454 // the records the fixture holds: synthStream(seed 18, 50 min)
	records := synthStream(rand.New(rand.NewSource(18)), baseTime(), 50*time.Minute)
	if len(records) != cut {
		t.Fatalf("synthStream(seed 18, 50 min) has %d records, the fixture holds %d", len(records), cut)
	}
	records = append(records, synthStream(rand.New(rand.NewSource(19)), baseTime().Add(50*time.Minute), 40*time.Minute)...)
	feed := func(eng *engine.WindowedDetector, records []flow.Record) {
		t.Helper()
		for i := range records {
			if err := eng.Add(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var want, got []windowKey
	whole := newTestEngine(t, "", &want)
	feed(whole, records[:cut])
	before := len(want)
	feed(whole, records[cut:])
	if err := whole.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, err := checkpoint.Read("testdata/snapshot_v1_pr18.bin")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.WALSeq != cut {
		t.Fatalf("the fixture covers %d records, want %d", snap.Meta.WALSeq, cut)
	}
	resumed := newTestEngine(t, "", &got)
	if err := snap.RestoreEngine(resumed); err != nil {
		t.Fatal(err)
	}
	feed(resumed, records[cut:])
	if err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || !reflect.DeepEqual(got, want[before:]) {
		t.Fatalf("resumed run emitted\n%+v\nthe unbroken run, after the fixture's point:\n%+v", got, want[before:])
	}
}
