package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"plotters/internal/flow"
	"plotters/internal/flowio"
)

// The write-ahead log is a single append-only file:
//
//	header: magic "PWAL", u16 version, u64 baseSeq
//	frames: u32 crc, u64 seq, u32 len, payload (one binary flow record)
//
// The CRC covers seq, len, and payload. Sequence numbers start at
// baseSeq+1 and increment by one per frame; baseSeq is the last
// sequence number already covered by a snapshot, rewritten when the
// log rotates after a checkpoint. Recovery tolerates exactly one kind
// of damage silently: a torn tail — a write (of many frames) the process
// did not finish before dying, truncated to the last whole frame.
// Everything else (bad CRC, out-of-order sequence, undecodable record)
// is an error, because it means bytes that were once durable changed.

var walMagic = [4]byte{'P', 'W', 'A', 'L'}

const (
	walVersion     = 1
	walHeaderSize  = 4 + 2 + 8 // magic, version, baseSeq
	walFrameHeader = 4 + 8 + 4 // crc, seq, len
	walMaxFrameLen = 4096      // far above any encoded record; a complete frame header declaring more is corrupt
	walBufSize     = 64 << 10  // frames gathered per write(2): ~900 payload-free records
)

// ErrNotWAL is returned when a file does not begin with the WAL magic.
var ErrNotWAL = errors.New("checkpoint: not a checkpoint WAL (bad magic)")

// ReplayInfo summarizes one WAL scan.
type ReplayInfo struct {
	// BaseSeq is the header's base sequence number: frames at or below
	// it are already covered by a snapshot.
	BaseSeq uint64
	// Frames is the number of intact frames scanned.
	Frames int
	// LastSeq is the sequence number of the last intact frame (BaseSeq
	// when the log holds none).
	LastSeq uint64
	// Torn reports that the file ended mid-frame — the expected
	// artifact of a crash during an append. The torn tail carries no
	// complete record and is truncated when the log is reopened.
	Torn bool
}

// scanWAL walks data, invoking fn for every intact frame, and returns
// the scan summary plus the length of the valid prefix (header and
// complete frames). A header shorter than walHeaderSize is reported as
// torn with a zero valid length — the crash hit the log's creation.
func scanWAL(data []byte, fn func(seq uint64, rec *flow.Record) error) (ReplayInfo, int, error) {
	var info ReplayInfo
	if len(data) == 0 {
		return info, 0, nil
	}
	if len(data) < walHeaderSize {
		info.Torn = true
		return info, 0, nil
	}
	if string(data[:4]) != string(walMagic[:]) {
		return info, 0, ErrNotWAL
	}
	le := binary.LittleEndian
	if v := le.Uint16(data[4:6]); v != walVersion {
		return info, 0, fmt.Errorf("checkpoint: WAL version %d is not supported by this build (understands up to %d)", v, walVersion)
	}
	info.BaseSeq = le.Uint64(data[6:14])
	info.LastSeq = info.BaseSeq
	valid := walHeaderSize
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		if len(rest) < walFrameHeader {
			info.Torn = true
			return info, valid, nil
		}
		crc := le.Uint32(rest[0:4])
		seq := le.Uint64(rest[4:12])
		n := int(le.Uint32(rest[12:16]))
		// A torn write loses the tail of what it wrote; it never changes
		// a header it completed. So an over-long length is corruption,
		// and only a frame running past the end of the file is torn.
		if n > walMaxFrameLen {
			return info, valid, fmt.Errorf("checkpoint: WAL frame after seq %d declares %d bytes, over the %d-byte limit — the log is corrupt", info.LastSeq, n, walMaxFrameLen)
		}
		if len(rest) < walFrameHeader+n {
			info.Torn = true
			return info, valid, nil
		}
		body := rest[4 : walFrameHeader+n]
		if crc32.ChecksumIEEE(body) != crc {
			return info, valid, fmt.Errorf("checkpoint: WAL frame after seq %d failed its CRC check — the log is corrupt", info.LastSeq)
		}
		if seq != info.LastSeq+1 {
			return info, valid, fmt.Errorf("checkpoint: WAL sequence jumped from %d to %d — the log is corrupt", info.LastSeq, seq)
		}
		rec, used, err := flowio.DecodeRecord(rest[walFrameHeader : walFrameHeader+n])
		if err != nil {
			return info, valid, fmt.Errorf("checkpoint: WAL frame seq %d: %w", seq, err)
		}
		if used != n {
			return info, valid, fmt.Errorf("checkpoint: WAL frame seq %d carries %d trailing bytes", seq, n-used)
		}
		if fn != nil {
			if err := fn(seq, &rec); err != nil {
				return info, valid, err
			}
		}
		info.Frames++
		info.LastSeq = seq
		valid += walFrameHeader + n
		rest = rest[walFrameHeader+n:]
	}
	return info, valid, nil
}

// ReplayWALBytes scans an in-memory WAL image, invoking fn per intact
// frame. It is the pure core of recovery (OpenWAL uses it on the file's
// contents) and the surface the fuzzer drives.
func ReplayWALBytes(data []byte, fn func(seq uint64, rec *flow.Record) error) (ReplayInfo, error) {
	info, _, err := scanWAL(data, fn)
	return info, err
}

// walFile is what the log needs of its file: *os.File, or a test's
// stand-in that writes short or fails.
type walFile interface {
	io.WriteSeeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an open write-ahead log. Appends are group-committed: frames
// gather in a fixed buffer and reach the file in one write (see Append
// for when). The first failed or short write is kept and returned by
// every later call — nothing is ever framed after a hole. Not safe for
// concurrent use; the Manager serializes access.
type WAL struct {
	f         walFile
	nextSeq   uint64
	size      int64 // header and every accepted frame, buffered ones included
	syncEvery int
	unsynced  int
	buf       []byte      // accepted frames not yet written; never grows past walBufSize
	err       error       // the first write failure; sticky
	wrote     func(n int) // told of every completed write (the Manager's accounting)
}

// OpenWAL opens (creating if absent) the log at path, replaying every
// intact frame through replay before the log accepts appends. A torn
// tail is truncated; CRC or sequence damage is a hard error. syncEvery
// is the commit cadence: buffered frames are written and the file
// fsynced every syncEvery appends (<= 1 = every append).
func OpenWAL(path string, syncEvery int, replay func(seq uint64, rec *flow.Record) error) (*WAL, ReplayInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, ReplayInfo{}, fmt.Errorf("checkpoint: reading WAL: %w", err)
	}
	info, valid, err := scanWAL(data, replay)
	if err != nil {
		return nil, info, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("checkpoint: opening WAL: %w", err)
	}
	w := &WAL{f: f, nextSeq: info.LastSeq + 1, syncEvery: syncEvery, buf: make([]byte, 0, walBufSize)}
	if valid == 0 {
		// Fresh file, or a creation the crash interrupted before the
		// header was durable: start a clean log.
		if err := w.reset(info.BaseSeq); err != nil {
			f.Close()
			return nil, info, err
		}
		return w, info, nil
	}
	if info.Torn {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, info, fmt.Errorf("checkpoint: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, info, fmt.Errorf("checkpoint: seeking WAL: %w", err)
	}
	w.size = int64(valid)
	return w, info, nil
}

// reset rewrites the log as empty with the given base sequence.
func (w *WAL) reset(baseSeq uint64) error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("checkpoint: truncating WAL: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("checkpoint: seeking WAL: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], walVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], baseSeq)
	if _, err := w.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: writing WAL header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing WAL header: %w", err)
	}
	w.size = walHeaderSize
	w.unsynced = 0
	return nil
}

// Append frames one record into the log's buffer and returns its
// sequence number. The frame reaches the OS with the next flush: when
// the buffer fills or the sync policy comes due, and before Sync, Rotate
// or Close return. Config.SyncEvery says what a kill can lose meanwhile.
func (w *WAL) Append(rec *flow.Record) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if err := rec.Validate(); err != nil {
		return 0, fmt.Errorf("checkpoint: refusing to log invalid record: %w", err)
	}
	seq := w.nextSeq
	le := binary.LittleEndian
	at := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0) // crc placeholder
	w.buf = le.AppendUint64(w.buf, seq)
	w.buf = append(w.buf, 0, 0, 0, 0) // len placeholder
	w.buf = flowio.AppendRecord(w.buf, rec)
	frame := w.buf[at:]
	le.PutUint32(frame[12:16], uint32(len(frame)-walFrameHeader))
	le.PutUint32(frame[0:4], crc32.ChecksumIEEE(frame[4:]))
	w.nextSeq++
	w.size += int64(len(frame))
	w.unsynced++
	if w.syncEvery <= 1 || w.unsynced >= w.syncEvery {
		return seq, w.Sync()
	}
	if cap(w.buf)-len(w.buf) < walFrameHeader+walMaxFrameLen {
		return seq, w.flush() // no room for another frame
	}
	return seq, nil
}

// flush hands the buffered frames to the OS in one write. If it fails
// or falls short the file may end mid-frame, so the log accepts nothing
// more; reopening it truncates to the last whole frame.
func (w *WAL) flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	n, err := w.f.Write(w.buf)
	if err == nil && n < len(w.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = fmt.Errorf("checkpoint: WAL write failed, log closed to appends: %w", err)
		return w.err
	}
	w.buf = w.buf[:0]
	if w.wrote != nil {
		w.wrote(n)
	}
	return nil
}

// Sync flushes buffered frames and forces them to stable storage.
func (w *WAL) Sync() error {
	if err := w.flush(); err != nil || w.unsynced == 0 {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing WAL: %w", err)
	}
	w.unsynced = 0
	return nil
}

// Rotate empties the log after a snapshot that covers every frame up to
// and including baseSeq. Refuses to drop frames no snapshot holds.
func (w *WAL) Rotate(baseSeq uint64) error {
	if baseSeq+1 < w.nextSeq {
		return fmt.Errorf("checkpoint: rotating WAL to base %d would drop %d frames no snapshot covers",
			baseSeq, w.nextSeq-1-baseSeq)
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.reset(baseSeq); err != nil {
		return err
	}
	w.nextSeq = baseSeq + 1
	return nil
}

// LastSeq returns the sequence number of the most recently appended
// frame, buffered or written (or the base, when there are none).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// Size returns the log's size in bytes, buffered frames included.
func (w *WAL) Size() int64 { return w.size }

// Close flushes, syncs and closes the log.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
