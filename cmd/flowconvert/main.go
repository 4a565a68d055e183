// Command flowconvert converts a flow trace between the binary, CSV,
// JSON Lines, and export packet-stream formats (NetFlow v5, IPFIX,
// sFlow v5), streaming record by record so traces larger than memory
// convert fine.
//
// The packet-stream formats are the wire formats real exporters emit:
// concatenations of valid export datagrams, readable back here and
// replayable over UDP with flowreplay. All three are lossy — timestamps
// floor to the millisecond and payload bytes are dropped (netflow
// additionally drops responder-side counters) — but each carries
// everything the detection pipeline reads.
//
// Usage:
//
//	flowconvert -from binary -to csv IN OUT
//	flowconvert -from binary -to netflow day-0.flows day-0.nf5
package main

import (
	"flag"
	"fmt"
	"os"

	"plotters"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowconvert:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		from = flag.String("from", "binary", "input format: "+plotters.TraceFormatNames())
		to   = flag.String("to", "csv", "output format: "+plotters.TraceFormatNames())
	)
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		return fmt.Errorf("expected IN and OUT arguments")
	}
	in, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(flag.Arg(1))
	if err != nil {
		return err
	}

	reader, err := plotters.NewTraceReader(in, *from)
	if err != nil {
		out.Close()
		return err
	}
	writer, err := plotters.NewTraceWriter(out, *to)
	if err != nil {
		out.Close()
		return err
	}
	n, err := plotters.CopyTrace(writer, reader)
	if err != nil {
		out.Close()
		return fmt.Errorf("after %d records: %w", n, err)
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "converted %d records (%s -> %s)\n", n, *from, *to)
	return nil
}
