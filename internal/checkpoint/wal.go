package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"plotters/internal/flow"
	"plotters/internal/flowio"
)

// The write-ahead log is a single append-only file:
//
//	header: magic "PWAL", u16 version, u64 baseSeq
//	frames: u32 crc, u64 first seq, u32 len, len bytes of records
//
// A frame is what one flush writes: every record appended since the
// last, back to back, the first one numbered first seq and each next
// one more. The CRC covers first seq, len and the records. Version 2
// logs only what replay feeds detection — initiator, responder, start,
// bytes uploaded and outcome:
//
//	record: u32 src, u32 dst, varint start, uvarint srcBytes, u8 proto | state<<6
//
// where start is the zig-zag delta in nanoseconds from the frame's
// previous record (from zero for its first). Ports, End, packet counts,
// DstBytes and payload are not logged, and replay sets End = Start: no
// detector reads them. That is 11 to 29 bytes a record, against version
// 1's frame of 71 or more, one per record, each with its own header and
// CRC. This build replays a version 1 log but appends to it only after
// Rotate has rewritten it as version 2; Manager.Recover does so at once.
//
// Sequence numbers start at baseSeq+1 and increment by one per record;
// baseSeq is the last sequence number already covered by a snapshot,
// rewritten when the log rotates after a checkpoint. Recovery tolerates
// exactly one kind of damage silently: a torn tail — a write the
// process did not finish before dying, truncated to the last whole
// frame. Everything else (bad CRC, out-of-order sequence, undecodable
// record) is an error, because it means bytes that were once durable
// changed.

var walMagic = [4]byte{'P', 'W', 'A', 'L'}

const (
	walVersion     = 2
	walHeaderSize  = 4 + 2 + 8                           // magic, version, baseSeq
	walFrameHeader = 4 + 8 + 4                           // crc, first seq, len
	walMaxRecord   = 4 + 4 + 2*binary.MaxVarintLen64 + 1 // src, dst, start, srcBytes, proto|state
	walFrameMax    = 900                                 // records a frame holds at most: what a kill can lose past the sync policy
	walMaxFrameLen = walFrameMax * walMaxRecord          // a complete frame header declaring more is corrupt
	walBufSize     = walFrameHeader + walMaxFrameLen     // one frame: the buffer never grows
	walV1MaxFrame  = 4096                                // version 1's limit, far above any record it framed
)

// ErrNotWAL is returned when a file does not begin with the WAL magic.
var ErrNotWAL = errors.New("checkpoint: not a checkpoint WAL (bad magic)")

// ReplayInfo summarizes one WAL scan.
type ReplayInfo struct {
	// Version is the log's format version: walVersion, or 1 for a log
	// an older build wrote.
	Version uint16
	// BaseSeq is the header's base sequence number: records at or below
	// it are already covered by a snapshot.
	BaseSeq uint64
	// Frames is the number of records in intact frames.
	Frames int
	// LastSeq is the sequence number of the last record of the last
	// intact frame (BaseSeq when the log holds none).
	LastSeq uint64
	// Torn reports that the file ended mid-frame — the expected
	// artifact of a crash during an append. The torn tail carries no
	// complete record and is truncated when the log is reopened.
	Torn bool
}

// scanWAL walks data, invoking fn for every record of every intact
// frame, and returns the scan summary plus the length of the valid
// prefix (header and complete frames). A header shorter than
// walHeaderSize is reported as torn with a zero valid length — the
// crash hit the log's creation.
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
	info.Version = le.Uint16(data[4:6])
	decode, maxLen := decodeV2, walMaxFrameLen
	switch info.Version {
	case walVersion:
	case 1:
		decode, maxLen = decodeV1, walV1MaxFrame
	default:
		return info, 0, fmt.Errorf("checkpoint: WAL version %d is not supported by this build (understands up to %d)", info.Version, walVersion)
	}
	info.BaseSeq = le.Uint64(data[6:14])
	info.LastSeq = info.BaseSeq
	emit := func(rec *flow.Record) error {
		seq := info.LastSeq + 1
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("checkpoint: WAL record seq %d: %w", seq, err)
		}
		if fn != nil {
			if err := fn(seq, rec); err != nil {
				return err
			}
		}
		info.Frames++
		info.LastSeq = seq
		return nil
	}
	valid := walHeaderSize
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		if len(rest) < walFrameHeader {
			info.Torn = true
			return info, valid, nil
		}
		crc := le.Uint32(rest[0:4])
		first := le.Uint64(rest[4:12])
		n := int(le.Uint32(rest[12:16]))
		// A torn write loses the tail of what it wrote; it never changes
		// a header it completed. So an over-long length is corruption,
		// and only a frame running past the end of the file is torn.
		if n > maxLen {
			return info, valid, fmt.Errorf("checkpoint: WAL frame after seq %d declares %d bytes, over the %d-byte limit — the log is corrupt", info.LastSeq, n, maxLen)
		}
		if len(rest) < walFrameHeader+n {
			info.Torn = true
			return info, valid, nil
		}
		if crc32.ChecksumIEEE(rest[4:walFrameHeader+n]) != crc {
			return info, valid, fmt.Errorf("checkpoint: WAL frame after seq %d failed its CRC check — the log is corrupt", info.LastSeq)
		}
		if first != info.LastSeq+1 {
			return info, valid, fmt.Errorf("checkpoint: WAL sequence jumped from %d to %d — the log is corrupt", info.LastSeq, first)
		}
		if err := decode(rest[walFrameHeader:walFrameHeader+n], info.LastSeq, emit); err != nil {
			return info, valid, err
		}
		valid += walFrameHeader + n
		rest = rest[walFrameHeader+n:]
	}
	return info, valid, nil
}

// decodeV1 decodes a version 1 frame, the one after seq after: one
// record in flowio's binary encoding.
func decodeV1(p []byte, after uint64, emit func(*flow.Record) error) error {
	rec, used, err := flowio.DecodeRecord(p)
	if err != nil {
		return fmt.Errorf("checkpoint: WAL frame after seq %d: %w", after, err)
	}
	if used != len(p) {
		return fmt.Errorf("checkpoint: WAL frame after seq %d carries %d trailing bytes", after, len(p)-used)
	}
	return emit(&rec)
}

// decodeV2 decodes a version 2 frame's records in order, the frame
// after seq after.
func decodeV2(p []byte, after uint64, emit func(*flow.Record) error) error {
	if len(p) == 0 {
		return fmt.Errorf("checkpoint: WAL frame after seq %d holds no record — the log is corrupt", after)
	}
	var start int64
	for len(p) > 0 {
		n, m := 0, 0
		var d int64
		var bytes uint64
		if len(p) > 8 {
			d, n = binary.Varint(p[8:])
		}
		if n > 0 {
			bytes, m = binary.Uvarint(p[8+n:])
		}
		if m <= 0 || len(p) == 8+n+m { // no start, no bytes, or no proto|state
			return fmt.Errorf("checkpoint: WAL frame after seq %d ends inside a record — the log is corrupt", after)
		}
		start += d
		at := time.Unix(0, start).UTC()
		ps := p[8+n+m]
		rec := flow.Record{
			Src: flow.IP(binary.LittleEndian.Uint32(p)), Dst: flow.IP(binary.LittleEndian.Uint32(p[4:])),
			Proto: flow.Proto(ps & 0x3f), State: flow.ConnState(ps >> 6),
			Start: at, End: at, SrcBytes: bytes,
		}
		if err := emit(&rec); err != nil {
			return err
		}
		p = p[8+n+m+1:]
	}
	return nil
}

// ReplayWALBytes scans an in-memory WAL image, invoking fn for every
// record of every intact frame. It is the pure core of recovery (OpenWAL uses it on the file's
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

// WAL is an open write-ahead log. Appends are group-committed: records
// gather in one open frame and reach the file in one write (see Append
// for when). The first failed or short write is kept and returned by
// every later call — nothing is ever framed after a hole. Not safe for
// concurrent use; the Manager serializes access.
type WAL struct {
	f         walFile
	version   uint16 // of the file's header: appends need walVersion
	nextSeq   uint64
	size      int64 // header and every accepted record, buffered ones included
	syncEvery int
	unsynced  int
	buf       []byte      // the open frame; never grows past walBufSize
	first     uint64      // the open frame's first sequence number
	start     int64       // the open frame's last start, Unix ns
	err       error       // the first write failure; sticky
	wrote     func(n int) // told of every completed write (the Manager's accounting)
}

// OpenWAL opens (creating if absent) the log at path, replaying every
// record of every intact frame through replay before the log accepts
// appends. A torn tail is truncated; CRC or sequence damage is a hard
// error. syncEvery is the commit cadence: buffered records are written
// and the file fsynced every syncEvery appends (<= 1 = every append).
// A version 1 log replays, but takes appends only once Rotate has
// rewritten it.
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
	w := &WAL{f: f, version: info.Version, nextSeq: info.LastSeq + 1, syncEvery: syncEvery, buf: make([]byte, 0, walBufSize)}
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
	w.version = walVersion
	w.size = walHeaderSize
	w.unsynced = 0
	return nil
}

// Append encodes one record into the open frame and returns its
// sequence number. The frame reaches the OS with the next flush: when
// it holds walFrameMax records or the sync policy comes due, and before
// Sync, Rotate or Close return. Config.SyncEvery says what a kill can
// lose meanwhile.
func (w *WAL) Append(rec *flow.Record) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.version != walVersion {
		return 0, fmt.Errorf("checkpoint: the WAL is version %d; rotate it before appending", w.version)
	}
	if err := rec.Validate(); err != nil {
		return 0, fmt.Errorf("checkpoint: refusing to log invalid record: %w", err)
	}
	seq := w.nextSeq
	if len(w.buf) == 0 {
		w.buf = w.buf[:walFrameHeader] // crc, first seq and len are set by flush
		w.first, w.start = seq, 0
		w.size += walFrameHeader
	}
	at, start := len(w.buf), rec.Start.UnixNano()
	b := w.buf[at : at+walMaxRecord] // the frame never outgrows the buffer
	binary.LittleEndian.PutUint32(b, uint32(rec.Src))
	binary.LittleEndian.PutUint32(b[4:], uint32(rec.Dst))
	n := 8 + binary.PutVarint(b[8:], start-w.start)
	n += binary.PutUvarint(b[n:], rec.SrcBytes)
	b[n] = byte(rec.Proto) | byte(rec.State)<<6
	w.buf = w.buf[:at+n+1]
	w.start = start
	w.nextSeq++
	w.size += int64(n + 1)
	w.unsynced++
	if w.syncEvery <= 1 || w.unsynced >= w.syncEvery {
		return seq, w.Sync()
	}
	if w.nextSeq-w.first == walFrameMax {
		return seq, w.flush()
	}
	return seq, nil
}

// flush closes the open frame — its length and one CRC over it — and
// hands it to the OS in one write. If the write fails or falls short
// the file may end mid-frame, so the log accepts nothing more;
// reopening it truncates to the last whole frame.
func (w *WAL) flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	le := binary.LittleEndian
	le.PutUint64(w.buf[4:12], w.first)
	le.PutUint32(w.buf[12:16], uint32(len(w.buf)-walFrameHeader))
	le.PutUint32(w.buf[0:4], crc32.ChecksumIEEE(w.buf[4:]))
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

// Sync flushes the open frame and forces it to stable storage.
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

// Rotate empties the log after a snapshot that covers every record up
// to and including baseSeq, rewriting its header at this build's
// version. Refuses to drop records no snapshot holds.
func (w *WAL) Rotate(baseSeq uint64) error {
	if baseSeq+1 < w.nextSeq {
		return fmt.Errorf("checkpoint: rotating WAL to base %d would drop %d records no snapshot covers",
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
// record, buffered or written (or the base, when there are none).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// Size returns the log's size in bytes, the open frame included.
func (w *WAL) Size() int64 { return w.size }

// Close flushes, syncs and closes the log.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
