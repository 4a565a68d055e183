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

// testdata/wal_v1_pr25.log was written by a version 1 build: the 78
// records of synthStream(seed 26, 10 min), synced every append, closed.
// Its layout, one record a frame in flowio's encoding, is spelled out by
// hand below, and this build replays it. testdata/wal_v2_pr56.log holds
// the same records as the first version 2 build wrote them at SyncEvery
// 7. At any sync cadence the closed log is the version 2 layout spelled
// out by hand — a frame per flush, SyncEvery records each and the rest
// in the last — and that file is the SyncEvery 7 case.
func TestWALBytesUnchanged(t *testing.T) {
	records := synthStream(rand.New(rand.NewSource(26)), baseTime(), 10*time.Minute)
	parent, err := os.ReadFile("testdata/wal_v1_pr25.log")
	if err != nil {
		t.Fatal(err)
	}
	if byHand := walLog(1, 0, chunks(records, 1)...); !bytes.Equal(byHand, parent) {
		t.Fatalf("the version 1 fixture (%d bytes) is not the documented layout (%d bytes)", len(parent), len(byHand))
	}
	v2, err := os.ReadFile("testdata/wal_v2_pr56.log")
	if err != nil {
		t.Fatal(err)
	}
	if byHand := walLog(2, 0, chunks(records, 7)...); !bytes.Equal(byHand, v2) {
		t.Fatalf("the version 2 fixture (%d bytes) is not the documented layout (%d bytes)", len(v2), len(byHand))
	}
	for _, syncEvery := range []int{1, 7, 1 << 30} {
		t.Run(fmt.Sprintf("sync%d", syncEvery), func(t *testing.T) {
			want := walLog(2, 0, chunks(records, syncEvery)...)
			path := walPath(t)
			w, _, err := checkpoint.OpenWAL(path, syncEvery, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, records)
			if got := w.Size(); got != int64(len(want)) {
				t.Errorf("Size() = %d before Close, want %d: the open frame counts", got, len(want))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("closed log (%d bytes) is not the documented layout (%d bytes)", len(got), len(want))
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
	if info.Version != 1 || info.Torn || info.Frames != len(records) || info.LastSeq != uint64(len(records)) {
		t.Fatalf("parent-written log scanned as %+v, want %d clean version 1 records", info, len(records))
	}
	for i := range records {
		if got, want := flowio.AppendRecord(nil, &replayed[i]), flowio.AppendRecord(nil, &records[i]); !bytes.Equal(got, want) {
			t.Fatalf("frame %d replayed as %+v, want %+v", i, replayed[i], records[i])
		}
	}
	// A version 1 log takes appends only once rotated to version 2.
	if seq, err := w.Append(&records[0]); err == nil {
		t.Fatalf("appended seq %d to a version 1 log", seq)
	}
	if err := w.Rotate(w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(&records[0]); err != nil || seq != uint64(len(records)+1) {
		t.Fatalf("append after rotating the parent's log: seq %d, err %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := walLog(2, uint64(len(records)), records[:1]); !bytes.Equal(got, want) {
		t.Fatalf("the rotated log is %x, want %x", got, want)
	}
}

// A frame whose CRC holds but whose records do not parse — cut inside a
// record, or empty — is corruption, not a torn tail: a writer never
// framed it. Cut at a record boundary it is whole, with fewer records.
func TestWALFrameEndingInsideARecordIsAnError(t *testing.T) {
	records := synthStream(rand.New(rand.NewSource(27)), baseTime(), 2*time.Minute)[:6]
	const header, frameHeader = 14, 16
	payload := walLog(2, 0, records)[header+frameHeader:]
	boundaries := map[int]int{} // payload length → records it holds
	for k := 1; k <= len(records); k++ {
		boundaries[len(walLog(2, 0, records[:k]))-header-frameHeader] = k
	}
	le := binary.LittleEndian
	for cut := 0; cut <= len(payload); cut++ {
		body := le.AppendUint32(le.AppendUint64(nil, 1), uint32(cut))
		body = append(body, payload[:cut]...)
		data := append(le.AppendUint32(walLog(2, 0), crc32.ChecksumIEEE(body)), body...)
		info, err := checkpoint.ReplayWALBytes(data, nil)
		if k, whole := boundaries[cut]; whole {
			if err != nil || info.Frames != k || info.Torn {
				t.Fatalf("cut %d: a frame of %d whole records scanned as %+v, err %v", cut, k, info, err)
			}
		} else if err == nil {
			t.Fatalf("cut %d: a frame ending inside a record scanned as %+v", cut, info)
		}
	}
}
