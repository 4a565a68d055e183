package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"plotters/internal/checkpoint"
	"plotters/internal/engine"
)

// A decoded snapshot must re-encode to the exact bytes it came from —
// the serialization is canonical, which is what makes "bit-identical
// recovery" a checkable property rather than a slogan.
func TestSnapshotEncodeDecodeCanonical(t *testing.T) {
	snap := populatedSnapshot(t)
	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 100 {
		t.Fatalf("suspiciously small snapshot: %d bytes", len(data))
	}
	decoded, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := checkpoint.Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("decode/encode is not canonical: %d bytes vs %d", len(data), len(again))
	}
	if decoded.Meta != snap.Meta {
		t.Fatalf("meta round trip: got %+v want %+v", decoded.Meta, snap.Meta)
	}
	if len(decoded.Exporters) != len(snap.Exporters) {
		t.Fatalf("exporter round trip: got %d want %d", len(decoded.Exporters), len(snap.Exporters))
	}
	for i, x := range snap.Exporters {
		if decoded.Exporters[i] != x {
			t.Errorf("exporter %d: got %+v want %+v", i, decoded.Exporters[i], x)
		}
	}
}

// A restored snapshot must pass back through the live engine unchanged:
// restore into a fresh engine, snapshot again, compare bytes.
func TestSnapshotRestoreIsTransparent(t *testing.T) {
	snap := populatedSnapshot(t)
	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t, "", nil)
	if err := snap.RestoreEngine(eng); err != nil {
		t.Fatal(err)
	}
	resnap := &checkpoint.Snapshot{Meta: snap.Meta, Engine: eng.State(), Exporters: snap.Exporters}
	again, err := checkpoint.Encode(resnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("snapshot changed across a restore/re-snapshot cycle")
	}
}

// Write must commit atomically and leave no temp file behind; Read must
// return the committed bytes.
func TestSnapshotWriteRead(t *testing.T) {
	snap := populatedSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, checkpoint.SnapshotFile)
	n, err := checkpoint.Write(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("Write reported %d bytes, file has %d", n, fi.Size())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("state dir has %d entries after Write, want just the snapshot", len(entries))
	}
	got, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := checkpoint.Encode(snap)
	have, _ := checkpoint.Encode(got)
	if !bytes.Equal(want, have) {
		t.Fatal("Read returned different state than Write persisted")
	}
}

// Every single-bit corruption of a snapshot must be detected: the CRCs
// cover the payloads and the frame fields fail structurally. Silently
// loading corrupt state is the one unforgivable failure mode.
func TestSnapshotDecodeDetectsBitFlips(t *testing.T) {
	snap := populatedSnapshot(t)
	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Stride through the file (every position on small files would be
	// slow in -race CI runs); the stride is coprime with all the frame
	// sizes so every region gets hit.
	stride := 7
	if testing.Short() {
		stride = 101
	}
	for pos := 0; pos < len(data); pos += stride {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= bit
			if _, err := checkpoint.Decode(mut); err == nil {
				t.Fatalf("flipping bit %#x at offset %d went undetected", bit, pos)
			}
		}
	}
}

// Every truncation of a snapshot must be detected.
func TestSnapshotDecodeDetectsTruncation(t *testing.T) {
	snap := populatedSnapshot(t)
	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 13 {
		if _, err := checkpoint.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(data))
		}
	}
	if _, err := checkpoint.Decode(data[:len(data)-1]); err == nil {
		t.Fatal("truncation by one byte went undetected")
	}
}

// Garbage that is not a snapshot at all must fail with ErrNotSnapshot.
func TestSnapshotDecodeGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		[]byte("PCK"),
		[]byte("not a snapshot at all, just some text"),
		bytes.Repeat([]byte{0xff}, 4096),
	} {
		if _, err := checkpoint.Decode(data); err == nil {
			t.Fatalf("garbage input %q decoded without error", data)
		}
	}
}

// A snapshot from a mismatched configuration must refuse to restore,
// naming the offending knob.
func TestSnapshotRestoreConfigMismatch(t *testing.T) {
	snap := populatedSnapshot(t)
	cfg := testEngineConfig()
	cfg.Shards = 5
	eng, err := engine.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = snap.RestoreEngine(eng)
	if err == nil {
		t.Fatal("restore into a 5-shard engine did not fail")
	}
	if want := "shard count"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("mismatch error %q does not name %q", err, want)
	}
}
