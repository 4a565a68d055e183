// Command flowreplay replays a stored flow trace as live flow-export
// datagrams — a software exporter for exercising plotfind -listen (or
// any flow collector) without router hardware.
//
// Records are read in trace order, packed into valid export packets
// (up to -batch records each), and sent over UDP. -emit selects the
// wire protocol: NetFlow v5 (default), IPFIX, or sFlow v5, so the same
// trace can drive every decoder the collector registers. With
// -speedup N the inter-packet gaps follow the records' start times
// compressed N-fold (1 = faithful real time); -speedup 0 blasts the
// trace as fast as the socket accepts, which is how you load-test a
// collector's bounded queue. The exporter sequence numbers are
// continuous — cumulative records for v5/IPFIX, a datagram counter for
// sFlow, each protocol's native semantics — so a collector's
// sequence-gap counters measure exactly what the network (or its own
// drops) lost in transit.
//
// Usage:
//
//	flowreplay -to 127.0.0.1:2055 [-emit v5|ipfix|sflow] [-format binary|csv|jsonl|netflow|ipfix|sflow] [-speedup N] [-batch N] TRACE
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"plotters"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowreplay:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		to      = flag.String("to", "", "UDP address of the collector, e.g. 127.0.0.1:2055 (required)")
		emit    = flag.String("emit", "v5", "export protocol for outgoing datagrams: "+plotters.ExportProtocolNames())
		format  = flag.String("format", "binary", "trace format: "+plotters.TraceFormatNames())
		speedup = flag.Float64("speedup", 0, "pace packets by record start times compressed this many times (1 = real time, 0 = no pacing)")
		batch   = flag.Int("batch", 30, "records per export packet (1-30)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected exactly one trace file argument")
	}
	if *to == "" {
		return fmt.Errorf("-to is required")
	}
	proto, err := plotters.LookupExportProtocol(*emit)
	if err != nil {
		return fmt.Errorf("-emit: %w", err)
	}
	if *batch < 1 || *batch > 30 {
		return fmt.Errorf("-batch must be between 1 and 30 (v5 packets hold at most 30 records)")
	}
	if *speedup < 0 {
		return fmt.Errorf("-speedup must be >= 0")
	}

	conn, err := net.Dial("udp", *to)
	if err != nil {
		return err
	}
	defer conn.Close()
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := plotters.NewTraceReader(f, *format)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		pkt        []byte
		pending    []plotters.Record
		seq        uint32
		packets    int
		records    int
		sent       int64
		traceStart time.Time
		wallStart  = time.Now()
	)
	// send packs and transmits the pending batch as one datagram,
	// sleeping first so the batch leaves at its start time's place on
	// the compressed timeline.
	send := func() error {
		if len(pending) == 0 {
			return nil
		}
		if *speedup > 0 {
			due := time.Duration(float64(pending[0].Start.Sub(traceStart)) / *speedup)
			if d := due - time.Since(wallStart); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		var err error
		if pkt, err = proto.Append(pkt[:0], pending, seq); err != nil {
			return err
		}
		if _, err := conn.Write(pkt); err != nil {
			return err
		}
		seq += proto.SeqStep(len(pending))
		packets++
		records += len(pending)
		sent += int64(len(pkt))
		pending = pending[:0]
		return nil
	}

	for ctx.Err() == nil {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("after %d records: %w", records+len(pending), err)
		}
		if records == 0 && len(pending) == 0 {
			traceStart = rec.Start
		}
		pending = append(pending, rec)
		if len(pending) == *batch {
			if err := send(); err != nil {
				return replayErr(err, ctx, records)
			}
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %d records in %d packets\n", records, packets)
		return nil
	}
	if err := send(); err != nil {
		return replayErr(err, ctx, records)
	}
	fmt.Fprintf(os.Stderr, "replayed %d records in %d packets (%d bytes) to %s in %s\n",
		records, packets, sent, *to, time.Since(wallStart).Round(time.Millisecond))
	return nil
}

// replayErr turns a cancellation surfaced through send into a clean
// interrupted exit; real errors pass through.
func replayErr(err error, ctx context.Context, records int) error {
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %d records\n", records)
		return nil
	}
	return err
}
