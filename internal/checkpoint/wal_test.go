package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/flow"
	"plotters/internal/flowio"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), checkpoint.WALFile)
}

func appendAll(t *testing.T, w *checkpoint.WAL, records []flow.Record) []uint64 {
	t.Helper()
	seqs := make([]uint64, len(records))
	for i := range records {
		seq, err := w.Append(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	return seqs
}

// Records framed into the log must replay in order with their sequence
// numbers on reopen.
func TestWALAppendReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	records := synthStream(rng, baseTime(), 30*time.Minute)
	path := walPath(t)

	w, info, err := checkpoint.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != 0 || info.Torn {
		t.Fatalf("fresh WAL scanned as %+v", info)
	}
	seqs := appendAll(t, w, records)
	for i, seq := range seqs {
		if want := uint64(i + 1); seq != want {
			t.Fatalf("record %d got seq %d, want %d", i, seq, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []flow.Record
	var gotSeqs []uint64
	w2, info, err := checkpoint.OpenWAL(path, 0, func(seq uint64, rec *flow.Record) error {
		got = append(got, *rec)
		gotSeqs = append(gotSeqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Torn {
		t.Fatal("cleanly closed WAL reported torn")
	}
	if info.Frames != len(records) || len(got) != len(records) {
		t.Fatalf("replayed %d frames, want %d", info.Frames, len(records))
	}
	if info.LastSeq != uint64(len(records)) {
		t.Fatalf("LastSeq %d, want %d", info.LastSeq, len(records))
	}
	for i := range records {
		if gotSeqs[i] != seqs[i] {
			t.Fatalf("frame %d seq %d, want %d", i, gotSeqs[i], seqs[i])
		}
		if !got[i].Start.Equal(records[i].Start) || got[i].Src != records[i].Src ||
			got[i].SrcBytes != records[i].SrcBytes || got[i].State != records[i].State {
			t.Fatalf("frame %d record mismatch:\ngot  %+v\nwant %+v", i, got[i], records[i])
		}
	}
	// New appends continue the sequence.
	seq, err := w2.Append(&records[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(records) + 1); seq != want {
		t.Fatalf("post-reopen append got seq %d, want %d", seq, want)
	}
}

// A torn tail — the half-written frame a kill leaves behind — must be
// truncated on reopen, losing only the incomplete frame; the log must
// come back clean (not torn) on the reopen after that.
func TestWALTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	records := synthStream(rng, baseTime(), 20*time.Minute)
	path := walPath(t)
	w, _, err := checkpoint.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, records)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear off the last 10 bytes — mid-frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	frames := 0
	w2, info, err := checkpoint.OpenWAL(path, 0, func(uint64, *flow.Record) error {
		frames++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatal("torn tail not reported")
	}
	if frames != len(records)-1 {
		t.Fatalf("replayed %d frames after tear, want %d", frames, len(records)-1)
	}
	// Appending over the truncated tail works and the log is clean again.
	if _, err := w2.Append(&records[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, err = checkpoint.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || info.Frames != len(records) {
		t.Fatalf("log after tear-repair-append scanned as %+v, want %d clean frames", info, len(records))
	}
}

// A bit flip inside a committed frame is corruption, not a torn tail:
// reopen must fail loudly.
func TestWALDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	records := synthStream(rng, baseTime(), 20*time.Minute)
	path := walPath(t)
	w, _, err := checkpoint.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, records)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.OpenWAL(path, 0, nil); err == nil {
		t.Fatal("bit-flipped WAL opened without error")
	}
}

// A bit flip in a committed frame's length field is corruption too, not
// a torn tail: a torn write never changes a header it completed. Read as
// torn, one flipped bit in frame 2's length would replay frame 1 and
// truncate every frame after it.
func TestWALCorruptFrameLengthIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	records := synthStream(rng, baseTime(), 20*time.Minute)
	path := walPath(t)
	w, _, err := checkpoint.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, records)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const walHeader, frameHeader = 14, 16
	first := frameHeader + int(binary.LittleEndian.Uint32(data[walHeader+12:]))
	data[walHeader+first+12+2] ^= 0x01 // the third byte of frame 2's length
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := checkpoint.OpenWAL(path, 0, nil)
	if err == nil {
		t.Fatalf("WAL with a corrupt frame length opened as %+v, %d of %d frames", info, info.Frames, len(records))
	}
	if !strings.Contains(err.Error(), "after seq 1 ") {
		t.Fatalf("error %q does not name the last good seq, 1", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("the refused log was rewritten: %d bytes, was %d", len(after), len(data))
	}
}

// Rotation after a snapshot empties the log and continues the sequence
// numbering; rotating past frames no snapshot covers is refused.
func TestWALRotate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	records := synthStream(rng, baseTime(), 20*time.Minute)
	path := walPath(t)
	w, _, err := checkpoint.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, records)
	last := w.LastSeq()

	if err := w.Rotate(last - 1); err == nil {
		t.Fatal("rotate below the last appended frame did not fail")
	}
	if err := w.Rotate(last); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 14 { // header only: magic, version, baseSeq
		t.Fatalf("rotated WAL is %d bytes, want the 14-byte header", w.Size())
	}
	seq, err := w.Append(&records[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq != last+1 {
		t.Fatalf("post-rotate append got seq %d, want %d", seq, last+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	frames := 0
	var firstSeq uint64
	_, info, err := checkpoint.OpenWAL(path, 0, func(seq uint64, _ *flow.Record) error {
		if frames == 0 {
			firstSeq = seq
		}
		frames++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseSeq != last || frames != 1 || firstSeq != last+1 {
		t.Fatalf("rotated log scanned as base %d, %d frames, first seq %d; want base %d, 1 frame, seq %d",
			info.BaseSeq, frames, firstSeq, last, last+1)
	}
}

// A WAL stamped with a future version must be rejected with a
// descriptive error, not misparsed.
func TestWALUnknownVersion(t *testing.T) {
	path := walPath(t)
	hdr := make([]byte, 14)
	copy(hdr, "PWAL")
	binary.LittleEndian.PutUint16(hdr[4:6], 99)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := checkpoint.OpenWAL(path, 0, nil)
	if err == nil {
		t.Fatal("version-99 WAL opened without error")
	}
	if !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("error %q does not name the offending version", err)
	}
}

// A file that is not a WAL at all must fail with ErrNotWAL.
func TestWALBadMagic(t *testing.T) {
	path := walPath(t)
	if err := os.WriteFile(path, []byte("definitely not a write-ahead log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.OpenWAL(path, 0, nil); err == nil {
		t.Fatal("non-WAL file opened without error")
	}
}

// testdata/wal_v1_pr25.log was written by the last commit whose Append
// issued one write(2) per frame: the 78 records of synthStream(seed 26,
// 10 min), synced every append, closed. Gathering frames into one
// buffer changed when bytes reach the file, never which bytes: at any
// sync cadence the closed log is that file exactly, which is also the
// layout spelled out by hand below, and this build replays the old
// build's log and carries on from it.
func TestWALBytesUnchanged(t *testing.T) {
	records := synthStream(rand.New(rand.NewSource(26)), baseTime(), 10*time.Minute)
	parent, err := os.ReadFile("testdata/wal_v1_pr25.log")
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	byHand := le.AppendUint64(append([]byte("PWAL"), 1, 0), 0) // magic, version 1, base seq 0
	for i := range records {
		payload := flowio.AppendRecord(nil, &records[i])
		body := le.AppendUint64(nil, uint64(i+1)) // seq
		body = le.AppendUint32(body, uint32(len(payload)))
		body = append(body, payload...)
		byHand = append(le.AppendUint32(byHand, crc32.ChecksumIEEE(body)), body...)
	}
	if !bytes.Equal(byHand, parent) {
		t.Fatalf("the fixture (%d bytes) is not the documented layout (%d bytes)", len(parent), len(byHand))
	}
	for _, syncEvery := range []int{1, 7, 1 << 30} {
		t.Run(fmt.Sprintf("sync%d", syncEvery), func(t *testing.T) {
			path := walPath(t)
			w, _, err := checkpoint.OpenWAL(path, syncEvery, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, records)
			if got, want := w.Size(), int64(len(parent)); got != want {
				t.Errorf("Size() = %d before Close, want %d: buffered frames count", got, want)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, parent) {
				t.Fatalf("closed log (%d bytes) differs from the parent build's (%d bytes)", len(got), len(parent))
			}
		})
	}

	path := walPath(t)
	if err := os.WriteFile(path, parent, 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed []flow.Record
	w, info, err := checkpoint.OpenWAL(path, 1<<30, func(_ uint64, rec *flow.Record) error {
		replayed = append(replayed, *rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || info.Frames != len(records) || info.LastSeq != uint64(len(records)) {
		t.Fatalf("parent-written log scanned as %+v, want %d clean frames", info, len(records))
	}
	for i := range records {
		if got, want := flowio.AppendRecord(nil, &replayed[i]), flowio.AppendRecord(nil, &records[i]); !bytes.Equal(got, want) {
			t.Fatalf("frame %d replayed as %+v, want %+v", i, replayed[i], records[i])
		}
	}
	if seq, err := w.Append(&records[0]); err != nil || seq != uint64(len(records)+1) {
		t.Fatalf("append after the parent's frames: seq %d, err %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
