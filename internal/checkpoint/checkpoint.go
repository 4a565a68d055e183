// Package checkpoint persists the live detection pipeline's state so a
// crashed or restarted process resumes exactly where it stopped. Two
// artifacts cooperate:
//
//   - a snapshot: one versioned binary file holding a complete
//     engine.State (window bookkeeping, sharded feature store, pane
//     ring), the collector's per-exporter sequence state, and a
//     metadata section that pins the configuration the state depends
//     on. Snapshots commit atomically (write temp, fsync, rename).
//   - a write-ahead log: every record appended to the engine is first
//     framed into the WAL, which is written out before any window is
//     sealed. Recovery restores the newest snapshot and replays the
//     frames past it, so the rebuilt engine has seen every record the
//     dead one built a window on — windows seal on the same boundaries
//     with the same contents, bit for bit.
//
// The format is deliberately paranoid about its inputs: every section
// carries a CRC32, every count is validated before allocation, and an
// unknown version or section id is a descriptive error, never a guess.
// A corrupt or half-written file must cost an error message, not a
// silently wrong detector.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"plotters/internal/collector"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/wire"
)

// snapshotMagic identifies a snapshot file; the version that follows it
// is bumped on any layout change.
var snapshotMagic = [4]byte{'P', 'C', 'K', 'P'}

// snapshotVersion is the layout Encode writes; Decode reads versions 1
// to 3 too. Versions 1 to 3 also carried a carry-first-seen flag in the
// meta and a list of carried first-seen anchors per shard; this build
// restarts θ_churn's grace period in every window, so Decode refuses a
// snapshot whose flag is set or whose lists are not empty. Version 2
// also carried each shard's earliest start and record count, and each
// host's successful flows, peer count, last-seen time and destinations
// as two lists (first contacts, latest starts) where version 3 has one.
// Version 1 differs from version 2 only in the store's pending records:
// each shard carried an arrival counter, and each pending record went
// whole, with its arrival number.
const snapshotVersion = 4

// Section ids. New sections get new ids; readers reject ids they do not
// know rather than skip them, because every section written today is
// load-bearing for bit-identical recovery and a future section will be
// too.
const (
	secMeta      = 1
	secEngine    = 2
	secExporters = 3
)

// Minimum encoded sizes, used to bound allocations when decoding
// element counts (see decoder.count).
const (
	minAddrTime    = 4 + 9             // address + flagged time (versions 1 to 3)
	minDest        = 4 + 2*9           // address + two flagged times
	minHostState   = 4 + 4*8 + 9 + 2*4 // host, four counters, first seen, two counts (version 3 on, the smallest)
	minStreamState = 2*9 + 2*4         // two times, two counts (version 4, the smallest)
	minPending     = 2*4 + 9 + 8 + 1   // two addresses, start, bytes, failed
	minPendingV1   = 55 + 8            // record header + arrival number
	minExporter    = 2 + 2 + 2*(1+4)   // name len, engine, two seen/next pairs
)

// ErrNotSnapshot is returned when a file does not begin with the
// snapshot magic.
var ErrNotSnapshot = errors.New("checkpoint: not a checkpoint snapshot (bad magic)")

// Meta pins everything a snapshot's state silently depends on: when and
// at which WAL position it was taken, and the configuration fingerprint
// (window geometry, skew, shard count, churn grace) that must match the
// restoring engine. Restoring under a different geometry would not fail
// loudly on its own — features would just accumulate differently — so
// RestoreEngine checks it.
type Meta struct {
	// Created is when the snapshot was taken.
	Created time.Time
	// WALSeq is the last WAL sequence number whose record is already
	// reflected in the snapshotted state. Recovery replays only frames
	// with greater sequence numbers, which makes a crash between
	// snapshot commit and WAL rotation harmless.
	WALSeq uint64
	// Geometry fingerprints the engine configuration. Geometry.Shards is
	// the feature store's resolved count: the shard hash is
	// deterministic, so an equal count restores every host to the shard
	// that accumulated it.
	engine.Geometry
	// DropLate records the snapshotted engine's late-record policy. It is
	// not compared: it decides only whether Add reports a late record,
	// never what the state holds.
	DropLate bool
}

// Snapshot is the decoded form of one checkpoint file.
type Snapshot struct {
	Meta Meta
	// Engine is the complete detector state.
	Engine *engine.State
	// Exporters is the collector's per-exporter sequence accounting
	// (empty when no collector is attached).
	Exporters []collector.SequenceState
}

// EngineMeta derives the configuration fingerprint of a live engine —
// the Meta fields a snapshot of it would carry (Created and WALSeq are
// zero; the caller stamps those).
func EngineMeta(eng *engine.WindowedDetector) Meta {
	cfg := eng.Config()
	return Meta{Geometry: cfg.Geometry(eng.Store().Shards()), DropLate: cfg.DropLate}
}

// RestoreEngine verifies the snapshot's configuration fingerprint
// against eng, naming the first mismatched knob, and restores its state.
// eng must be freshly constructed.
func (s *Snapshot) RestoreEngine(eng *engine.WindowedDetector) error {
	if s.Engine == nil {
		return fmt.Errorf("checkpoint: snapshot carries no engine state")
	}
	if knob, snap, now := s.Meta.Mismatch(EngineMeta(eng).Geometry); knob != "" {
		return fmt.Errorf("checkpoint: snapshot was taken with %s %v but this engine is configured with %v — restore requires the snapshotted configuration",
			knob, snap, now)
	}
	return eng.RestoreState(s.Engine)
}

// Encode serializes the snapshot: magic, version, then framed sections
// (id, length, payload, CRC32 of the payload).
func Encode(s *Snapshot) ([]byte, error) {
	if s.Engine == nil || s.Engine.Store == nil {
		return nil, fmt.Errorf("checkpoint: refusing to encode a snapshot without engine store state")
	}
	var e wire.Encoder
	e.Raw(snapshotMagic[:])
	e.U16(snapshotVersion)
	wire.AppendFrame(&e, secMeta, encodeMeta(s.Meta))
	wire.AppendFrame(&e, secEngine, encodeEngineState(s.Engine))
	if len(s.Exporters) > 0 {
		wire.AppendFrame(&e, secExporters, encodeExporters(s.Exporters))
	}
	return e.Bytes(), nil
}

// Decode parses a snapshot produced by Encode. Any deviation — wrong
// magic, a version or section id from a future build, a failed CRC, a
// truncation, an implausible count — is an error; Decode never returns
// a partially populated snapshot.
func Decode(data []byte) (*Snapshot, error) {
	d := wire.NewDecoder(data)
	magic := d.Take(4)
	if d.Err() != nil || string(magic) != string(snapshotMagic[:]) {
		return nil, ErrNotSnapshot
	}
	version := d.U16()
	if d.Err() != nil {
		return nil, fmt.Errorf("checkpoint: snapshot truncated before version field")
	}
	if version < 1 || version > snapshotVersion {
		return nil, fmt.Errorf("checkpoint: snapshot version %d is not supported by this build (understands 1 to %d) — refusing to guess at its layout",
			version, snapshotVersion)
	}
	snap := &Snapshot{}
	seen := make(map[uint16]bool)
	for d.Remaining() > 0 {
		id := d.U16()
		n := int(d.U32())
		payload := d.Take(n)
		crc := d.U32()
		if d.Err() != nil {
			return nil, fmt.Errorf("checkpoint: snapshot truncated inside section frame: %w", d.Err())
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("checkpoint: section %d failed its CRC check — the snapshot is corrupt", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("checkpoint: duplicate section %d", id)
		}
		seen[id] = true
		sd := wire.NewDecoder(payload)
		switch id {
		case secMeta:
			snap.Meta = decodeMeta(sd, version)
		case secEngine:
			snap.Engine = decodeEngineState(sd, version)
		case secExporters:
			snap.Exporters = decodeExporters(sd)
		default:
			return nil, fmt.Errorf("checkpoint: unknown section id %d — the snapshot was written by a newer build and this one cannot load it without losing state",
				id)
		}
		if sd.Err() != nil {
			return nil, fmt.Errorf("checkpoint: section %d: %w", id, sd.Err())
		}
		if sd.Remaining() != 0 {
			return nil, fmt.Errorf("checkpoint: section %d carries %d undecoded trailing bytes", id, sd.Remaining())
		}
	}
	if !seen[secMeta] || !seen[secEngine] {
		return nil, fmt.Errorf("checkpoint: snapshot is missing required sections (meta and engine state)")
	}
	return snap, nil
}

// Write encodes the snapshot and commits it to path atomically: the
// bytes go to a temporary file in the same directory, are fsynced,
// and replace path with a rename; the directory is then fsynced so
// the rename itself is durable. A reader (or a crash) never observes
// a half-written snapshot. Returns the encoded size.
func Write(path string, s *Snapshot) (int64, error) {
	data, err := Encode(s)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: creating snapshot temp file: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: closing snapshot temp file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: committing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("checkpoint: syncing snapshot directory: %w", err)
	}
	return int64(len(data)), nil
}

// syncDir fsyncs a directory, making a rename inside it durable. A
// variable so tests can make it fail.
var syncDir = func(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close() // opened only to sync
	return df.Sync()
}

// Read loads and decodes the snapshot at path.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// --- section codecs ---

func encodeMeta(m Meta) []byte {
	var e wire.Encoder
	e.Time(m.Created)
	e.U64(m.WALSeq)
	e.Dur(m.Window)
	e.Dur(m.Slide)
	e.Dur(m.MaxSkew)
	e.Dur(m.Grace)
	e.U32(uint32(m.Shards))
	e.Bool(m.DropLate)
	return e.Bytes()
}

// noCarry is why Decode refuses a version 1 to 3 snapshot taken with
// first-seen carrying on.
const noCarry = "this build restarts θ_churn's grace period in every window"

func decodeMeta(d *wire.Decoder, version uint16) Meta {
	m := Meta{
		Created: d.Time(),
		WALSeq:  d.U64(),
		Geometry: engine.Geometry{
			Window:  d.Dur(),
			Slide:   d.Dur(),
			MaxSkew: d.Dur(),
			Grace:   d.Dur(),
			Shards:  int(d.U32()),
		},
	}
	if version < 4 && d.Bool() {
		d.Fail("snapshot taken with carry-first-seen on: %s", noCarry)
	}
	m.DropLate = d.Bool()
	return m
}

func encodeEngineState(st *engine.State) []byte {
	var e wire.Encoder
	e.Bool(st.Started)
	e.Time(st.Origin)
	e.Time(st.Frontier)
	e.I64(int64(st.PaneIdx))
	e.I64(int64(st.Emitted))
	e.I64(int64(st.Dropped))
	e.U32(uint32(len(st.Store.Shards)))
	for i := range st.Store.Shards {
		encodeStreamState(&e, &st.Store.Shards[i])
	}
	e.U32(uint32(len(st.Recent)))
	for _, ps := range st.Recent {
		if ps == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.Time(ps.Window.From)
		e.Time(ps.Window.To)
		encodeHostList(&e, ps.Hosts)
	}
	return e.Bytes()
}

func decodeEngineState(d *wire.Decoder, version uint16) *engine.State {
	st := &engine.State{
		Started:  d.Bool(),
		Origin:   d.Time(),
		Frontier: d.Time(),
		PaneIdx:  int(d.I64()),
		Emitted:  int(d.I64()),
		Dropped:  int(d.I64()),
	}
	shards := d.Count(minStreamState)
	store := &flow.ShardedState{Shards: make([]flow.StreamState, shards)}
	for i := range store.Shards {
		decodeStreamState(d, &store.Shards[i], version)
		if d.Err() != nil {
			return st
		}
	}
	st.Store = store
	recent := d.Count(1)
	for i := 0; i < recent && d.Err() == nil; i++ {
		if !d.Bool() {
			st.Recent = append(st.Recent, nil)
			continue
		}
		ps := &flow.PaneState{}
		ps.Window.From = d.Time()
		ps.Window.To = d.Time()
		ps.Hosts = decodeHostList(d, version)
		st.Recent = append(st.Recent, ps)
	}
	return st
}

func encodeStreamState(e *wire.Encoder, st *flow.StreamState) {
	e.Time(st.Frontier)
	e.Time(st.Released)
	encodeHostList(e, st.Hosts)
	e.U32(uint32(len(st.Pending)))
	for _, p := range st.Pending {
		e.U32(uint32(p.Src))
		e.U32(uint32(p.Dst))
		e.Time(p.Start)
		e.U64(p.SrcBytes)
		e.Bool(p.Failed)
	}
}

func decodeStreamState(d *wire.Decoder, st *flow.StreamState, version uint16) {
	if version < 3 {
		d.Time() // the earliest start
	}
	st.Frontier = d.Time()
	st.Released = d.Time()
	if version < 3 {
		d.I64() // the record count
	}
	if version == 1 {
		d.U64() // the arrival counter
	}
	st.Hosts = decodeHostList(d, version)
	if version < 4 {
		if n := d.Count(minAddrTime); n > 0 {
			d.Fail("shard holds %d carry-first-seen anchors: %s", n, noCarry)
		}
	}
	if version == 1 {
		st.Pending = decodePendingV1(d)
	} else {
		st.Pending = decodePending(d)
	}
}

func decodePending(d *wire.Decoder) []flow.PendingState {
	n := d.Count(minPending)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]flow.PendingState, n)
	for i := range out {
		out[i] = flow.PendingState{
			Src:      flow.IP(d.U32()),
			Dst:      flow.IP(d.U32()),
			Start:    d.Time(),
			SrcBytes: d.U64(),
			Failed:   d.Bool(),
		}
	}
	return out
}

// decodePendingV1 reads a version 1 pending list — whole records, each
// followed by its arrival number, in (start, arrival) order — and keeps
// the fields the features read, in the same order.
func decodePendingV1(d *wire.Decoder) []flow.PendingState {
	n := d.Count(minPendingV1)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]flow.PendingState, n)
	for i := range out {
		if d.Err() != nil {
			return out
		}
		rec, used, err := flowio.DecodeRecord(d.Rest())
		if err != nil {
			d.Fail("checkpoint: pending record %d: %v", i, err)
			return out
		}
		d.Take(used)
		d.U64() // the arrival number
		out[i] = flow.PendingState{
			Src: rec.Src, Dst: rec.Dst,
			Start:    rec.Start,
			SrcBytes: rec.SrcBytes,
			Failed:   rec.Failed(),
		}
	}
	return out
}

func encodeHostList(e *wire.Encoder, hosts []flow.HostState) {
	e.U32(uint32(len(hosts)))
	for i := range hosts {
		h := &hosts[i]
		f := &h.Feats
		e.U32(uint32(f.Host))
		e.I64(int64(f.Flows))
		e.I64(int64(f.FailedFlows))
		e.U64(f.BytesUploaded)
		e.I64(int64(f.NewPeers))
		e.Time(f.FirstSeen)
		e.U32(uint32(len(f.Interstitials)))
		for _, v := range f.Interstitials {
			e.F64(v)
		}
		e.U32(uint32(len(h.Dests)))
		for _, dt := range h.Dests {
			e.U32(uint32(dt.Dst))
			e.Time(dt.First)
			e.Time(dt.Last)
		}
	}
}

// decodeHostList reads a host list. Versions 1 and 2 also carried each
// host's successful flows (its flows less its failed ones), peer count
// (its destination count) and last-seen time.
func decodeHostList(d *wire.Decoder, version uint16) []flow.HostState {
	n := d.Count(minHostState)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]flow.HostState, n)
	for i := range out {
		h := &out[i]
		f := &h.Feats
		f.Host = flow.IP(d.U32())
		f.Flows = int(d.I64())
		if version < 3 {
			d.I64() // successful flows
		}
		f.FailedFlows = int(d.I64())
		f.BytesUploaded = d.U64()
		if version < 3 {
			d.I64() // peers
		}
		f.NewPeers = int(d.I64())
		f.FirstSeen = d.Time()
		if version < 3 {
			d.Time() // last seen
		}
		if k := d.Count(8); k > 0 {
			f.Interstitials = make([]float64, k)
			for j := range f.Interstitials {
				f.Interstitials[j] = d.F64()
			}
		}
		if version < 3 {
			h.Dests = decodeDestListsV2(d)
		} else if k := d.Count(minDest); k > 0 {
			h.Dests = make([]flow.DestTimes, k)
			for j := range h.Dests {
				h.Dests[j] = flow.DestTimes{Dst: flow.IP(d.U32()), First: d.Time(), Last: d.Time()}
			}
		}
		f.Peers = len(h.Dests)
		if d.Err() != nil {
			return out
		}
	}
	return out
}

// decodeDestListsV2 zips a version 1 or 2 host's first-contact and
// latest-start lists, which name the same destinations, into one.
func decodeDestListsV2(d *wire.Decoder) []flow.DestTimes {
	first, last := decodeDestTimesV2(d), decodeDestTimesV2(d)
	if len(first) != len(last) {
		d.Fail("%d first contacts but %d latest starts", len(first), len(last))
	}
	if d.Err() != nil || len(first) == 0 {
		return nil
	}
	out := make([]flow.DestTimes, len(first))
	for i, fc := range first {
		if fc.dst != last[i].dst {
			d.Fail("destination lists disagree at entry %d: %v vs %v", i, fc.dst, last[i].dst)
		}
		out[i] = flow.DestTimes{Dst: fc.dst, First: fc.at, Last: last[i].at}
	}
	return out
}

// destTimeV2 is one entry of a version 1 or 2 destination list.
type destTimeV2 struct {
	dst flow.IP
	at  time.Time
}

func decodeDestTimesV2(d *wire.Decoder) []destTimeV2 {
	n := d.Count(minAddrTime)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]destTimeV2, n)
	for i := range out {
		out[i] = destTimeV2{dst: flow.IP(d.U32()), at: d.Time()}
	}
	return out
}

func encodeExporters(xs []collector.SequenceState) []byte {
	var e wire.Encoder
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.Str(x.Exporter)
		e.U16(x.Engine)
		e.Bool(x.V5Seen)
		e.U32(x.V5Next)
		e.Bool(x.V9Seen)
		e.U32(x.V9Next)
	}
	return e.Bytes()
}

func decodeExporters(d *wire.Decoder) []collector.SequenceState {
	n := d.Count(minExporter)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]collector.SequenceState, n)
	for i := range out {
		out[i] = collector.SequenceState{
			Exporter: d.Str(),
			Engine:   d.U16(),
			V5Seen:   d.Bool(),
			V5Next:   d.U32(),
			V9Seen:   d.Bool(),
			V9Next:   d.U32(),
		}
	}
	return out
}
