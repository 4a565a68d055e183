package plotters

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"plotters/internal/checkpoint"
)

// LiveConfig describes one live collection run for RunLive.
type LiveConfig struct {
	// Addr is the UDP address to collect flow exports on.
	Addr string
	// Engine shapes the windowed detector the collector feeds. DropLate
	// is forced on — a socket cannot replay the past, so a record beyond
	// MaxSkew is a statistic, never an error. A non-empty StateDir makes
	// the run crash-safe: every record is write-ahead logged before any
	// window built on it is emitted and the full detection state is
	// snapshotted every CheckpointEvery and once more on shutdown; state
	// a previous (possibly killed) process left there is recovered first.
	Engine EngineConfig
	// Sampler keeps 1 flow in N inside the collector, ahead of the WAL.
	Sampler FlowSampler
	// Batch is the socket's recvmmsg batch size (0 = default).
	Batch int
	// CheckpointEvery is the periodic snapshot interval and WALSyncEvery
	// the log's write-and-fsync cadence in records (CheckpointConfig's
	// SyncEvery: what a kill may lose); both matter only with a StateDir.
	CheckpointEvery time.Duration
	WALSyncEvery    int
	// Metrics instruments the collector and the checkpoint manager; the
	// engine and detectors take theirs from Engine.Core.Metrics.
	Metrics *Metrics
	// Ready, when set, is called once the socket is bound and durable
	// state recovered (windows the WAL replay sealed have been emitted),
	// before the first datagram is decoded. recovered is nil without a
	// StateDir.
	Ready func(addr net.Addr, recovered *CheckpointRecovery)
}

// LiveReport is what a finished RunLive did.
type LiveReport struct {
	// Records counts the records the collector delivered, Dropped those
	// of them beyond MaxSkew, Windows the window results emitted.
	Records, Dropped, Windows int
	// Recovered is what start-up recovery found; SnapshotPath and
	// SnapshotBytes describe the final checkpoint. Zero without a
	// StateDir.
	Recovered     *CheckpointRecovery
	SnapshotPath  string
	SnapshotBytes int64
}

// RunLive collects flow exports on cfg.Addr into a windowed detector
// until ctx is cancelled, then drains the collector's queue, flushes the
// final (partial) window and — with a StateDir — commits a last
// checkpoint, so a clean restart replays nothing. emit receives every
// sealed window in order.
//
// Decode runs on one worker so records reach the engine in arrival
// order. The run stops early, returning the cause, on the first error
// from the engine, the write-ahead log or emit, and on the first failed
// periodic checkpoint: it never goes on ingesting without the
// durability it was asked for.
func RunLive(ctx context.Context, cfg LiveConfig, emit func(*WindowResult) error) (*LiveReport, error) {
	cfg.Engine.DropLate = true
	if cfg.Engine.StateDir != "" && cfg.Engine.Shards <= 0 {
		// "One shard per CPU" must not bind a state directory to the CPU
		// count of the host that wrote it: an unset count follows the
		// snapshot's. A missing or unreadable snapshot is Recover's to
		// report; an explicit, different count still fails there.
		if snap, err := checkpoint.Read(filepath.Join(cfg.Engine.StateDir, checkpoint.SnapshotFile)); err == nil {
			cfg.Engine.Shards = snap.Meta.Shards
		}
	}
	eng, err := NewWindowedDetector(cfg.Engine, emit)
	if err != nil {
		return nil, err
	}
	var ingest interface {
		Add(*Record) error
		Flush() error
	} = eng
	var mgr *CheckpointManager
	if cfg.Engine.StateDir != "" {
		mgr, err = NewCheckpointManager(CheckpointConfig{
			Interval:  cfg.CheckpointEvery,
			SyncEvery: cfg.WALSyncEvery,
			Metrics:   cfg.Metrics,
		}, eng)
		if err != nil {
			return nil, err
		}
		defer mgr.Close()
		ingest = mgr
	}

	ctx, stop := context.WithCancel(ctx)
	defer stop()

	// rep.Records and ingestErr are written only by the collector's
	// single worker and read after Run returns, once it has exited.
	rep := &LiveReport{}
	var ingestErr error
	col, err := ListenNetFlow(CollectorConfig{
		Addr:       cfg.Addr,
		Workers:    1,
		Batch:      cfg.Batch,
		SampleN:    cfg.Sampler.N,
		SampleSeed: cfg.Sampler.Seed,
		Metrics:    cfg.Metrics,
		Handler: func(records []Record) {
			if ingestErr != nil {
				return
			}
			for i := range records {
				rep.Records++
				if err := ingest.Add(&records[i]); err != nil {
					ingestErr = err
					stop()
					return
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}

	// Recovery runs after the socket binds (a taken port fails before a
	// long replay) but before packets flow: nothing is decoded until
	// col.Run, so replayed windows are emitted ahead of live ones.
	ckptErr := make(chan error, 1)
	if mgr != nil {
		mgr.AttachCollector(col)
		rep.Recovered, err = mgr.Recover()
		if err != nil {
			stop()
			_ = col.Run(ctx) // releases the socket; a cancelled Run has nothing else to report
			return nil, fmt.Errorf("recovering %s: %w", mgr.Dir(), err)
		}
		col.RestoreSequenceStates(rep.Recovered.Exporters)
		go func() {
			err := mgr.Run(ctx)
			if err != nil {
				// No more snapshots, and a WAL never rotated again.
				stop()
			}
			ckptErr <- err
		}()
	} else {
		close(ckptErr)
	}
	if cfg.Ready != nil {
		cfg.Ready(col.Addr(), rep.Recovered)
	}

	runErr := col.Run(ctx)
	stop()
	switch cerr := <-ckptErr; {
	case runErr != nil:
		return rep, runErr
	case cerr != nil:
		return rep, cerr
	case ingestErr != nil:
		return rep, ingestErr
	}

	if err := ingest.Flush(); err != nil {
		return rep, err
	}
	if mgr != nil {
		if err := mgr.Checkpoint(); err != nil {
			return rep, fmt.Errorf("final checkpoint: %w", err)
		}
		st, err := os.Stat(mgr.SnapshotPath())
		if err != nil {
			return rep, err
		}
		if err := mgr.Close(); err != nil {
			return rep, err
		}
		rep.SnapshotPath, rep.SnapshotBytes = mgr.SnapshotPath(), st.Size()
	}
	rep.Dropped, rep.Windows = eng.Dropped(), eng.Windows()
	return rep, nil
}
