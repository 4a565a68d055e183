package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"plotters/internal/checkpoint"
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
				binary.LittleEndian.PutUint16(b[4:6], 2)
				return b
			}),
			wantErr: "version 2",
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

// testdata/snapshot_v1_pr18.bin was written by the commit before the
// feature layer merged each host's two per-destination maps into one
// table and replaced the reorder heap with keys over a record slab: 454
// records of synthStream(seed 18, 50 min) through testEngineConfig(), so
// two sealed panes, buffered records and carried anchors are all in it.
// The in-memory layout changed; the bytes must not. Restoring the old
// build's snapshot into this build's engine and snapshotting again has
// to give back the file exactly — which proves the merged table
// re-exports both address-sorted lists, and every time in them, as the
// old maps did.
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
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded snapshot differs from the parent build's (%d vs %d bytes)", len(again), len(data))
	}
}
