package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"plotters/internal/collector"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// Default file names inside the state directory.
const (
	SnapshotFile = "snapshot.pckp"
	WALFile      = "wal.log"
)

// Config shapes a Manager. The state directory (snapshot + WAL) is the
// engine's Config.StateDir.
type Config struct {
	// Interval is the periodic checkpoint cadence for Run. Zero or
	// negative disables the timer — checkpoints then happen only on
	// explicit Checkpoint calls (e.g. on a signal).
	Interval time.Duration
	// SyncEvery is the WAL's commit cadence: buffered records are
	// written and the log fsynced every SyncEvery appends (<= 1 = every
	// append, the safest and slowest). Of the records accepted since the
	// last emitted window or snapshot, a power loss can take up to
	// SyncEvery and a process kill fewer than min(SyncEvery, 900): a
	// frame is written once it holds 900 records.
	SyncEvery int
	// Metrics instruments the manager ("checkpoint/..." names); nil
	// disables instrumentation.
	Metrics *metrics.Registry
	// Now supplies snapshot timestamps (defaults to time.Now); tests
	// pin it.
	Now func() time.Time
}

// RecoveryInfo summarizes what Recover found on disk.
type RecoveryInfo struct {
	// SnapshotLoaded reports that a snapshot existed and was restored.
	SnapshotLoaded bool
	// SnapshotCreated is the restored snapshot's creation time.
	SnapshotCreated time.Time
	// Replayed is the number of WAL records re-driven through the
	// engine (those past the snapshot's WAL position).
	Replayed int
	// WALTorn reports that the WAL ended mid-frame — the expected
	// artifact of a crash during an append; the torn tail was
	// truncated.
	WALTorn bool
	// Exporters is the collector sequence state the snapshot carried,
	// for seeding a restarted collector (RestoreSequenceStates).
	Exporters []collector.SequenceState
}

// Manager ties one engine to its durable state: it owns the WAL and
// the snapshot file, serializes ingest against checkpoints, and runs
// the periodic checkpoint loop. The intended feed order is
//
//	m, _ := NewManager(cfg, eng)
//	info, _ := m.Recover()          // restore snapshot, replay WAL
//	go m.Run(ctx)                   // periodic checkpoints
//	... m.Add(rec) per record ...   // WAL first, then the engine
//	m.Flush(); m.Checkpoint()       // graceful shutdown
//	m.Close()
//
// The log is written before visibility, not before the engine: Add only
// buffers the record in the WAL's open frame; the frame reaches the OS
// before any window is sealed (the engine's BeforeSeal hook), before a
// snapshot is stamped, and within a second (Run). All that is emitted
// or snapshotted is thus reproducible from snapshot + log;
// Config.SyncEvery bounds the rest.
//
// Recovery replays records the dead process had already pushed past
// its last snapshot, so windows those records sealed are emitted
// again — at-least-once delivery across a crash. Consumers that must
// not double-count deduplicate on the window Index.
//
// All methods are safe for concurrent use; Add serializes against
// Checkpoint, so a snapshot is always a record boundary.
type Manager struct {
	dir       string
	interval  time.Duration
	syncEvery int
	now       func() time.Time

	mu          sync.Mutex
	eng         *engine.WindowedDetector
	col         *collector.Collector
	wal         *WAL
	lastSnapSeq uint64    // WAL seq covered by the newest on-disk snapshot
	lastSnapAt  time.Time // when that snapshot was taken

	snapshot   *metrics.Stage
	snapBytes  *metrics.Counter
	snapSize   *metrics.Gauge
	walAppends *metrics.Counter
	walWrites  *metrics.Counter
	walBytes   *metrics.Counter
	walSize    *metrics.Gauge
	stateAge   *metrics.Gauge
	recoveries *metrics.Counter
	replayed   *metrics.Counter
}

// NewManager creates the state directory (if needed) and binds a
// manager to eng. Call Recover before feeding records.
func NewManager(cfg Config, eng *engine.WindowedDetector) (*Manager, error) {
	dir := eng.Config().StateDir
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: no state directory (set the engine's StateDir)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating state directory: %w", err)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Metrics
	return &Manager{
		dir:        dir,
		interval:   cfg.Interval,
		syncEvery:  cfg.SyncEvery,
		now:        now,
		eng:        eng,
		snapshot:   reg.Stage("checkpoint/snapshot"),
		snapBytes:  reg.Counter("checkpoint/snapshot_bytes_total"),
		snapSize:   reg.Gauge("checkpoint/snapshot_bytes"),
		walAppends: reg.Counter("checkpoint/wal_appends"),
		walWrites:  reg.Counter("checkpoint/wal_writes"),
		walBytes:   reg.Counter("checkpoint/wal_bytes"),
		walSize:    reg.Gauge("checkpoint/wal_size_bytes"),
		stateAge:   reg.Gauge("checkpoint/state_age_seconds"),
		recoveries: reg.Counter("checkpoint/recoveries"),
		replayed:   reg.Counter("checkpoint/replayed_records"),
	}, nil
}

// SnapshotPath returns the snapshot file's path.
func (m *Manager) SnapshotPath() string { return filepath.Join(m.dir, SnapshotFile) }

// WALPath returns the write-ahead log's path.
func (m *Manager) WALPath() string { return filepath.Join(m.dir, WALFile) }

// Dir returns the state directory.
func (m *Manager) Dir() string { return m.dir }

// Recover restores the newest snapshot (if one exists) into the
// engine, then opens the WAL and replays every record past the
// snapshot's position; a log an older build wrote is then checkpointed
// and rotated to this build's version. The engine must be freshly
// constructed with the snapshotted configuration; Recover fails
// otherwise. Replay drives the engine's emit callback, so windows
// sealed since the last snapshot are emitted again (see the type
// comment).
func (m *Manager) Recover() (*RecoveryInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal != nil {
		return nil, fmt.Errorf("checkpoint: Recover called twice")
	}
	info := &RecoveryInfo{}
	snap, err := Read(m.SnapshotPath())
	switch {
	case err == nil:
		if err := snap.RestoreEngine(m.eng); err != nil {
			return nil, err
		}
		m.lastSnapSeq = snap.Meta.WALSeq
		m.lastSnapAt = snap.Meta.Created
		info.SnapshotLoaded = true
		info.SnapshotCreated = snap.Meta.Created
		info.Exporters = snap.Exporters
	case os.IsNotExist(err):
		// Cold start: nothing to restore.
	default:
		return nil, err
	}
	wal, winfo, err := OpenWAL(m.WALPath(), m.syncEvery, func(seq uint64, rec *flow.Record) error {
		if seq <= m.lastSnapSeq {
			// Already reflected in the snapshot: the crash hit between
			// snapshot commit and WAL rotation.
			return nil
		}
		info.Replayed++
		if err := m.eng.Add(rec); err != nil && !errors.Is(err, engine.ErrLateRecord) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.wal = wal
	info.WALTorn = winfo.Torn
	switch {
	case m.lastSnapSeq >= wal.LastSeq():
		// The snapshot covers the whole log (or the log is behind it
		// after the crash-between-commit-and-rotate case): rotate so
		// new records continue the snapshot's sequence numbering.
		err = wal.Rotate(m.lastSnapSeq)
	case winfo.Version != walVersion:
		// An older build's log replays but takes no appends: snapshot
		// what it holds, which rotates it to this build's version.
		err = m.checkpointLocked()
	}
	if err != nil {
		wal.Close()
		m.wal = nil
		return nil, err
	}
	// Replay is over: flush ahead of every seal, account per write.
	m.eng.BeforeSeal(wal.flush)
	wal.wrote = func(n int) {
		m.walWrites.Add(1)
		m.walBytes.Add(int64(n))
		m.walSize.Set(wal.Size())
	}
	if info.SnapshotLoaded || info.Replayed > 0 {
		m.recoveries.Add(1)
	}
	m.replayed.Add(int64(info.Replayed))
	m.walSize.Set(m.wal.Size())
	m.observeAgeLocked()
	return info, nil
}

// AttachCollector includes c's per-exporter sequence state in every
// subsequent snapshot.
func (m *Manager) AttachCollector(c *collector.Collector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.col = c
}

// Add logs the record to the WAL, then feeds it to the engine — in
// that order, so if the record seals a window the flush ahead of that
// seal carries the record itself.
func (m *Manager) Add(rec *flow.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return fmt.Errorf("checkpoint: Add before Recover")
	}
	if _, err := m.wal.Append(rec); err != nil {
		return err
	}
	m.walAppends.Add(1)
	return m.eng.Add(rec)
}

// AdvanceTo forwards a watermark to the engine (sealing windows the
// frontier passed). Watermarks are not logged: a recovered process
// re-advances on its own clock.
func (m *Manager) AdvanceTo(t time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.AdvanceTo(t)
}

// Flush syncs the WAL and flushes the engine, emitting any final
// (possibly partial) windows. Part of a graceful shutdown, typically
// followed by a last Checkpoint.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal != nil {
		if err := m.wal.Sync(); err != nil {
			return err
		}
	}
	return m.eng.Flush()
}

// Checkpoint takes a snapshot of the engine (and attached collector),
// commits it atomically, and rotates the WAL behind it.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() error {
	if m.wal == nil {
		return fmt.Errorf("checkpoint: Checkpoint before Recover")
	}
	start := time.Now()
	// The snapshot must never claim WAL records more durable than it
	// found them: sync before stamping the covered sequence.
	if err := m.wal.Sync(); err != nil {
		return err
	}
	meta := EngineMeta(m.eng)
	meta.Created = m.now()
	meta.WALSeq = m.wal.LastSeq()
	snap := &Snapshot{Meta: meta, Engine: m.eng.State()}
	if m.col != nil {
		snap.Exporters = m.col.SequenceStates()
	}
	n, err := Write(m.SnapshotPath(), snap)
	if err != nil {
		return err
	}
	if err := m.wal.Rotate(meta.WALSeq); err != nil {
		return err
	}
	m.lastSnapSeq = meta.WALSeq
	m.lastSnapAt = meta.Created
	m.snapBytes.Add(n)
	m.snapSize.Set(n)
	m.snapshot.Observe(time.Since(start))
	m.walSize.Set(m.wal.Size())
	m.observeAgeLocked()
	return nil
}

func (m *Manager) observeAgeLocked() {
	if m.lastSnapAt.IsZero() {
		m.stateAge.Set(0)
		return
	}
	age := m.now().Sub(m.lastSnapAt)
	if age < 0 {
		age = 0
	}
	m.stateAge.Set(int64(age / time.Second))
}

// Run checkpoints every Interval (never, if <= 0) until ctx is canceled;
// every second in between it hands the WAL's open frame to the OS,
// bounding a quiet feed's tail in time as well as bytes, and refreshes
// the state-age gauge. Returns the first checkpoint or WAL error (a dead
// disk should be loud, not a silent loss of durability).
func (m *Manager) Run(ctx context.Context) error {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var checkpointC <-chan time.Time
	if m.interval > 0 {
		t := time.NewTicker(m.interval)
		defer t.Stop()
		checkpointC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			m.mu.Lock()
			var err error
			if m.wal != nil {
				err = m.wal.flush()
			}
			m.observeAgeLocked()
			m.mu.Unlock()
			if err != nil {
				return err
			}
		case <-checkpointC:
			if err := m.Checkpoint(); err != nil {
				return err
			}
		}
	}
}

// Close syncs and closes the WAL. The manager is unusable afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	m.eng.BeforeSeal(nil)
	return err
}
