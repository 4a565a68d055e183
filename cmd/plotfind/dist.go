package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"plotters"
)

// runDistShard streams a trace through a shard-local worker: records are
// reduced to per-host features and θ_hm sketches on this process, and
// only compact shard summaries cross the wire to the coordinator at
// -peers. The worker filters to hosts hashing to this shard, so every
// shard process can read the same full trace (or a pre-split one) and
// the deployment still computes exactly once per host.
func runDistShard(path, format string, reg *plotters.Metrics, cfg plotters.EngineConfig, sampler plotters.FlowSampler, shard, shards int, peer string, drainTimeout time.Duration) (int, error) {
	worker, err := plotters.NewShardWorker(plotters.ShardWorkerConfig{
		Shard:  shard,
		Shards: shards,
		Engine: cfg,
		Dial:   func() (net.Conn, error) { return net.Dial("tcp", peer) },
	})
	if err != nil {
		return 0, err
	}
	defer worker.Close()
	fmt.Fprintf(os.Stderr, "shard %d/%d: streaming %s to coordinator %s\n", shard, shards, path, peer)

	// Content-hash sampling: every shard drops the same flow set, so a
	// sampled distributed run equals the sampled single-process run.
	var last time.Time
	n, _, err := scanTrace(path, format, reg, sampler, func(rec *plotters.Record) error {
		if rec.Start.After(last) {
			last = rec.Start
		}
		return worker.Add(rec)
	})
	if err != nil {
		return n, err
	}
	// Seal every window the trace fully covered (watermark = last record
	// start), then flush the tail window as an explicit partial.
	if !last.IsZero() {
		if err := worker.AdvanceTo(last); err != nil {
			return n, err
		}
	}
	if err := worker.Flush(); err != nil {
		return n, err
	}
	if err := worker.Drain(drainTimeout); err != nil {
		return n, fmt.Errorf("shard %d: %w (%d frames unacknowledged — is the coordinator still up?)",
			shard, err, worker.Outstanding())
	}
	fmt.Printf("shard %d/%d: %d records read, %d windows shipped to %s\n",
		shard, shards, n, worker.Engine().Windows(), peer)
	return n, nil
}

// runDistCoordinator binds the -peers address, accepts shard-worker
// connections, and runs the global detection phase — percentile
// thresholds, θ_hm clustering, community graph — over the merged shard
// summaries of each sealed window. It runs until SIGINT/SIGTERM, then
// force-seals any windows still waiting on shards (marked [partial]) on
// the way out.
func runDistCoordinator(addr string, cfg plotters.CoordinatorConfig, verbose bool) error {
	coord, err := plotters.NewCoordinator(cfg, windowPrinter(verbose))
	if err != nil {
		return err
	}
	defer coord.Close()
	bound, err := coord.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "coordinator: %d shards expected on %s (Ctrl-C to stop)\n", cfg.Shards, bound)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	if err := coord.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d windows detected\n", coord.Detector().Windows())
	for _, ss := range coord.ShardSeqs() {
		status := "never connected"
		if ss.Seen {
			status = fmt.Sprintf("connects=%d gaps=%d lost=%d dups=%d", ss.Connects, ss.Gaps, ss.Lost, ss.Dups)
		}
		fmt.Printf("shard %d: %s\n", ss.Shard, status)
	}
	return coord.Close()
}
