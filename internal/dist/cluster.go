package dist

import (
	"net"
	"time"

	"plotters/internal/engine"
	"plotters/internal/flow"
)

// DistCluster is an in-process distributed deployment: N shard workers
// wired to one coordinator over synchronous in-memory pipes
// (net.Pipe), speaking the exact wire protocol a TCP deployment speaks
// — frames, sequence numbers, acks, reconnects — with no sockets and no
// timing dependence. It exists for deterministic tests of the
// distributed pipeline (the 4-shard golden equivalence, kill-and-
// reconnect) and doubles as executable documentation of how the pieces
// wire together.
type DistCluster struct {
	Coordinator *Coordinator
	Workers     []*ShardWorker
}

// NewDistCluster builds a coordinator plus cfg.Shards workers, each
// dialing the coordinator through a fresh pipe per connection (so a
// dropped connection reconnects exactly as TCP would). emit receives
// every completed window's global result in ascending window order.
func NewDistCluster(cfg CoordinatorConfig, emit func(*engine.Result) error) (*DistCluster, error) {
	coord, err := NewCoordinator(cfg, emit)
	if err != nil {
		return nil, err
	}
	c := &DistCluster{Coordinator: coord}
	for i := 0; i < cfg.Shards; i++ {
		w, err := NewShardWorker(WorkerConfig{
			Shard:  i,
			Shards: cfg.Shards,
			Engine: cfg.Engine,
			Dial: func() (net.Conn, error) {
				client, server := net.Pipe()
				go coord.ServeConn(server)
				return client, nil
			},
		})
		if err != nil {
			coord.Close()
			return nil, err
		}
		c.Workers = append(c.Workers, w)
	}
	return c, nil
}

// Add routes one record to the worker owning its initiator's shard —
// the record distribution a fronting load balancer (or per-shard
// exporter assignment) performs in a real deployment.
func (c *DistCluster) Add(r *flow.Record) error {
	return c.Workers[flow.ShardOf(r.Src, len(c.Workers))].Add(r)
}

// AdvanceTo punctuates every worker's stream: no record before t will
// arrive anywhere, so complete windows seal and their summaries ship.
func (c *DistCluster) AdvanceTo(t time.Time) error {
	for _, w := range c.Workers {
		if err := w.AdvanceTo(t); err != nil {
			return err
		}
	}
	return nil
}

// Drain waits until the coordinator has acknowledged every worker's
// outstanding frames — after it returns, every shipped window has been
// fully processed (results already emitted).
func (c *DistCluster) Drain(timeout time.Duration) error {
	for _, w := range c.Workers {
		if err := w.Drain(timeout); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the cluster down: workers first, then the coordinator.
// Pending windows are dropped; AdvanceTo + Drain + Coordinator.Flush
// first for a clean end-of-feed shutdown.
func (c *DistCluster) Close() error {
	var firstErr error
	for _, w := range c.Workers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.Coordinator.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
