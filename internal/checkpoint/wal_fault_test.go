package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
)

// faultyFile stands in for the log's file: it counts writes and syncs,
// and on write number failAt (1-based; 0 = never) lets only keep bytes
// through and returns err — nil err is a bare short write. Every write
// after that fails the same way with nothing written: the WAL must
// never get that far.
type faultyFile struct {
	walFile
	writes, syncs int
	failAt, keep  int
	err           error
}

func (f *faultyFile) Write(b []byte) (int, error) {
	f.writes++
	switch {
	case f.failAt == 0 || f.writes < f.failAt:
		return f.walFile.Write(b)
	case f.writes == f.failAt:
		n, _ := f.walFile.Write(b[:f.keep])
		return n, f.err
	}
	return 0, f.err
}

func (f *faultyFile) Sync() error {
	f.syncs++
	return f.walFile.Sync()
}

// faultRecords returns n payload-free records a second apart: 71-byte
// frames.
func faultRecords(n int) []flow.Record {
	base := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
	out := make([]flow.Record, n)
	for i := range out {
		at := base.Add(time.Duration(i) * time.Second)
		out[i] = flow.Record{
			Src: flow.IP(10 + i%7), Dst: flow.IP(200 + i%31), SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second), SrcPkts: 1, DstPkts: 1, SrcBytes: 500, DstBytes: 100,
			State: flow.StateEstablished,
		}
	}
	return out
}

const frameSize = walFrameHeader + 55 // a payload-free record

func openFaulty(t *testing.T, path string, syncEvery int, f *faultyFile) *WAL {
	t.Helper()
	w, _, err := OpenWAL(path, syncEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.walFile = w.f
	w.f = f
	return w
}

// The sync policy sets the write cadence too: SyncEvery 1 is still one
// write and one fsync per record, as before frames were gathered; above
// it both happen once per SyncEvery records; out of reach, a write goes
// out only when the buffer has no room for another frame.
func TestWALWritesPerSyncPolicy(t *testing.T) {
	const n = 2000
	records := faultRecords(n)
	perBuffer := (walBufSize-walFrameHeader-walMaxFrameLen)/frameSize + 1
	for _, tc := range []struct{ syncEvery, writes, syncs int }{
		{0, n, n},
		{1, n, n},
		{256, n/256 + 1, n/256 + 1}, // + Close's
		{1 << 30, n/perBuffer + 1, 1},
	} {
		t.Run(fmt.Sprintf("sync%d", tc.syncEvery), func(t *testing.T) {
			f := &faultyFile{}
			w := openFaulty(t, filepath.Join(t.TempDir(), WALFile), tc.syncEvery, f)
			for i := range records {
				if _, err := w.Append(&records[i]); err != nil {
					t.Fatal(err)
				}
				if len(w.buf) > walBufSize || cap(w.buf) != walBufSize {
					t.Fatalf("after %d appends the buffer holds %d bytes of %d, want a fixed %d", i+1, len(w.buf), cap(w.buf), walBufSize)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if f.writes != tc.writes || f.syncs != tc.syncs {
				t.Errorf("%d appends took %d writes and %d syncs, want %d and %d", n, f.writes, f.syncs, tc.writes, tc.syncs)
			}
		})
	}
}

// A multi-frame write that stops at any byte — the kill -9 that lands
// inside write(2), or a disk that fills — leaves a log that reopens to
// its last whole frame, says it was torn when it was, takes appends
// again, and scans clean and gapless afterwards.
func TestWALBufferTornAtEveryOffset(t *testing.T) {
	const frames = 5
	records := faultRecords(frames + 1)
	dir := t.TempDir()
	for cut := 0; cut <= frames*frameSize; cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.log", cut))
		f := &faultyFile{failAt: 1, keep: cut}
		w := openFaulty(t, path, 1<<30, f)
		for i := 0; i < frames; i++ {
			if _, err := w.Append(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
		err := w.Close()
		if f.writes != 1 {
			t.Fatalf("cut %d: %d frames took %d writes, want one", cut, frames, f.writes)
		}
		if (err == nil) != (cut == frames*frameSize) {
			t.Fatalf("cut %d: Close returned %v", cut, err)
		}

		whole := cut / frameSize
		replayed := 0
		w2, info, err := OpenWAL(path, 1<<30, func(seq uint64, _ *flow.Record) error {
			replayed++
			if seq != uint64(replayed) {
				t.Fatalf("cut %d: frame %d replayed with seq %d", cut, replayed, seq)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if replayed != whole || info.Torn != (cut%frameSize != 0) {
			t.Fatalf("cut %d: reopened to %d frames, torn %v; want %d, %v", cut, replayed, info.Torn, whole, cut%frameSize != 0)
		}
		seq, err := w2.Append(&records[frames])
		if err != nil || seq != uint64(whole+1) {
			t.Fatalf("cut %d: append after reopen: seq %d, err %v; want seq %d", cut, seq, err, whole+1)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := ReplayWALBytes(data, nil); err != nil || info.Torn || info.Frames != whole+1 || info.LastSeq != uint64(whole+1) {
			t.Fatalf("cut %d: repaired log scanned as %+v, err %v; want %d clean frames", cut, info, err, whole+1)
		}
	}
}

// After a failed or short write the log is closed to appends: every
// later call returns that first error, and nothing more is written —
// no frame ever lands after a hole.
func TestWALFailedWriteIsSticky(t *testing.T) {
	errDisk := errors.New("injected: no space left on device")
	records := faultRecords(600)
	for _, tc := range []struct {
		name string
		err  error // what the file returns
		want error // what the WAL's error wraps
	}{
		{"error", errDisk, errDisk},
		{"short", nil, io.ErrShortWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), WALFile)
			f := &faultyFile{failAt: 2, keep: 100, err: tc.err}
			w := openFaulty(t, path, 256, f)
			var first error
			failedAt := 0
			for i := range records {
				if _, err := w.Append(&records[i]); err != nil {
					first, failedAt = err, i+1
					break
				}
			}
			if failedAt != 512 || !errors.Is(first, tc.want) {
				t.Fatalf("second write (append 512) should have failed with %v; append %d returned %v", tc.want, failedAt, first)
			}
			_, appendErr := w.Append(&records[0])
			for name, err := range map[string]error{
				"Append": appendErr, "flush": w.flush(), "Sync": w.Sync(), "Rotate": w.Rotate(w.LastSeq()), "Close": w.Close(),
			} {
				if err != first {
					t.Errorf("%s after the failure returned %v, want the first error again", name, err)
				}
			}
			if f.writes != 2 {
				t.Errorf("%d writes reached the file, want none after the second failed", f.writes)
			}
			// What a restart finds: the first write's 256 frames, the
			// second's first whole frame, and a torn tail.
			_, info, err := OpenWAL(path, 256, nil)
			if err != nil || !info.Torn || info.Frames != 257 {
				t.Fatalf("log after the failure scanned as %+v, err %v; want 257 frames and a torn tail", info, err)
			}
		})
	}
}

// The manager passes the WAL's failure on through the seal hook: the
// record that would have sealed a window fails its Add before the
// window is detected, so nothing built on unwritten records is ever
// emitted, and ingest stays stopped.
func TestManagerSealAbortsOnFailedFlush(t *testing.T) {
	errDisk := errors.New("injected: I/O error")
	emitted := 0
	eng, err := engine.New(engine.Config{Window: 5 * time.Minute, Core: core.DefaultConfig(), StateDir: t.TempDir()}, func(*engine.Result) error {
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{SyncEvery: 1 << 30}, eng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	f := &faultyFile{walFile: m.wal.f, failAt: 1, err: errDisk}
	m.wal.f = f

	records := faultRecords(400) // a second apart: the 301st seals the first window
	for i := range records {
		err := m.Add(&records[i])
		if i < 300 {
			if err != nil {
				t.Fatalf("record %d, buffered ahead of any seal: %v", i, err)
			}
			continue
		}
		if !errors.Is(err, errDisk) {
			t.Fatalf("record %d: Add returned %v, want the failed write", i, err)
		}
	}
	if err := m.AdvanceTo(records[399].Start.Add(time.Hour)); !errors.Is(err, errDisk) {
		t.Errorf("AdvanceTo returned %v, want the failed write", err)
	}
	if err := m.Flush(); !errors.Is(err, errDisk) {
		t.Errorf("Flush returned %v, want the failed write", err)
	}
	if err := m.Checkpoint(); !errors.Is(err, errDisk) {
		t.Errorf("Checkpoint returned %v, want the failed write", err)
	}
	if emitted != 0 || eng.Windows() != 0 {
		t.Errorf("%d windows emitted on records the log never held", emitted)
	}
	if f.writes != 1 {
		t.Errorf("%d writes reached the file, want only the one that failed", f.writes)
	}
}
