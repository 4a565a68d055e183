// Command flowreplay replays a stored flow trace as live flow-export
// datagrams — a software exporter for exercising plotfind -listen (or
// any flow collector) without router hardware.
//
// Records are read in trace order and handed to the packet writer of the
// -emit protocol — NetFlow v5 (default), IPFIX, or sFlow v5, so the same
// trace can drive every decoder the collector registers — which packs
// them 30 to an export packet and sends each packet as one UDP datagram.
// With -speedup N each record is due at its start time compressed
// N-fold (1 = faithful real time), so a packet leaves when its last
// record is due; -speedup 0 blasts the trace as fast as the socket
// accepts, which is how you load-test a collector's bounded queue. The
// exporter sequence numbers are continuous — cumulative records for
// v5/IPFIX, a datagram counter for sFlow, each protocol's native
// semantics — so a collector's sequence-gap counters measure exactly
// what the network (or its own drops) lost in transit.
//
// Usage:
//
//	flowreplay -to 127.0.0.1:2055 [-emit v5|ipfix|sflow] [-format binary|csv|jsonl|netflow|ipfix|sflow] [-speedup N] TRACE
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
	"plotters/internal/flowio"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "flowreplay:", err)
		os.Exit(1)
	}
}

// datagrams counts what the packet writer hands the socket: one Write
// per export packet.
type datagrams struct {
	conn           io.Writer
	packets, bytes int
}

func (d *datagrams) Write(p []byte) (int, error) {
	n, err := d.conn.Write(p)
	d.packets++
	d.bytes += n
	return n, err
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		to      = fs.String("to", "", "UDP address of the collector, e.g. 127.0.0.1:2055 (required)")
		emit    = fs.String("emit", "v5", "export protocol for outgoing datagrams: "+plotters.ExportProtocolNames())
		format  = fs.String("format", "binary", "trace format: "+plotters.TraceFormatNames())
		speedup = fs.Float64("speedup", 0, "pace records by their start times compressed this many times (1 = real time, 0 = no pacing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one trace file argument")
	}
	if *to == "" {
		return fmt.Errorf("-to is required")
	}
	proto, err := plotters.LookupExportProtocol(*emit)
	if err != nil {
		return fmt.Errorf("-emit: %w", err)
	}
	if *speedup < 0 {
		return fmt.Errorf("-speedup must be >= 0")
	}

	conn, err := net.Dial("udp", *to)
	if err != nil {
		return err
	}
	defer conn.Close()
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := plotters.NewTraceReader(f, *format)
	if err != nil {
		return err
	}

	out := &datagrams{conn: conn}
	pw := flowio.NewPacketWriter(out, proto)
	var (
		records    int
		traceStart time.Time
		wallStart  = time.Now()
	)
	for ctx.Err() == nil {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("after %d records: %w", records, err)
		}
		if records == 0 {
			traceStart = rec.Start
		}
		// Wait until the record is due on the compressed timeline.
		if *speedup > 0 {
			due := time.Duration(float64(rec.Start.Sub(traceStart)) / *speedup)
			if d := due - time.Since(wallStart); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		if ctx.Err() != nil {
			break
		}
		if err := pw.Write(&rec); err != nil {
			return err
		}
		records++
	}
	// Whatever was due has left, interrupted or not.
	if err := pw.Flush(); err != nil {
		return err
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "interrupted after %d records in %d packets\n", records, out.packets)
		return nil
	}
	fmt.Fprintf(stderr, "replayed %d records in %d packets (%d bytes) to %s in %s\n",
		records, out.packets, out.bytes, *to, time.Since(wallStart).Round(time.Millisecond))
	return nil
}
