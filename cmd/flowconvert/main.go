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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"plotters/internal/flowio"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "flowconvert:", err)
		os.Exit(1)
	}
}

// run checks both formats and that OUT is not IN before it creates OUT:
// creating it truncates whatever was there.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		from = fs.String("from", "binary", "input format: "+flowio.Names())
		to   = fs.String("to", "csv", "output format: "+flowio.Names())
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("expected IN and OUT arguments")
	}
	src, err := flowio.Lookup(*from)
	if err != nil {
		return err
	}
	dst, err := flowio.Lookup(*to)
	if err != nil {
		return err
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	inInfo, err := in.Stat()
	if err != nil {
		return err
	}
	if outInfo, err := os.Stat(fs.Arg(1)); err == nil && os.SameFile(inInfo, outInfo) {
		return fmt.Errorf("OUT %s is the same file as IN %s", fs.Arg(1), fs.Arg(0))
	}
	out, err := os.Create(fs.Arg(1))
	if err != nil {
		return err
	}
	n, err := flowio.Copy(dst.NewWriter(out), src.NewReader(in))
	if err != nil {
		out.Close()
		return fmt.Errorf("after %d records: %w", n, err)
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "converted %d records (%s -> %s)\n", n, *from, *to)
	return nil
}
