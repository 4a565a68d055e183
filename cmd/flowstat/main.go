// Command flowstat summarizes a flow trace: global counts plus per-host
// feature distributions (average flow size, failed-connection rate,
// new-IP fraction, flow counts) and optional CDF dumps — the raw material
// of the paper's Figures 1 and 5.
//
// Usage:
//
//	flowstat [-format binary|csv|jsonl] [-internal CIDR[,CIDR]] [-cdf FEATURE] TRACE
//
// FEATURE is one of avgbytes, failrate, newip, flows.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"plotters"
	"plotters/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "flowstat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flowstat", flag.ContinueOnError)
	var (
		format    = fs.String("format", "binary", "trace format: "+plotters.TraceFormatNames())
		internals = fs.String("internal", "", "comma-separated internal CIDRs (empty = all initiators)")
		cdf       = fs.String("cdf", "", "dump a CDF: avgbytes, failrate, newip, or flows")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one trace file argument")
	}
	features := map[string]func(*plotters.HostFeatures) float64{
		"avgbytes": (*plotters.HostFeatures).AvgBytesPerFlow,
		"failrate": (*plotters.HostFeatures).FailedRate,
		"newip":    (*plotters.HostFeatures).NewPeerFraction,
		"flows":    func(f *plotters.HostFeatures) float64 { return float64(f.Flows) },
	}
	if _, ok := features[*cdf]; *cdf != "" && !ok {
		return fmt.Errorf("unknown CDF feature %q (want avgbytes, failrate, newip, or flows)", *cdf)
	}
	var internal func(plotters.IP) bool
	var err error
	if *internals != "" {
		if internal, err = plotters.ParseSubnets(*internals); err != nil {
			return err
		}
	}
	var records []plotters.Record
	_, _, err = plotters.ScanTraceFile(fs.Arg(0), *format, nil, plotters.FlowSampler{}, func(rec *plotters.Record) error {
		records = append(records, *rec)
		return nil
	})
	if err != nil {
		return err
	}

	var totalBytes uint64
	failed := 0
	for i := range records {
		totalBytes += records[i].SrcBytes + records[i].DstBytes
		if records[i].Failed() {
			failed++
		}
	}
	fmt.Fprintf(stdout, "records\t%d\nfailed\t%d (%.1f%%)\nbytes\t%d\n", len(records), failed,
		100*float64(failed)/float64(max(1, len(records))), totalBytes)
	if len(records) > 0 {
		// Exporters write a flow when it ends: the earliest and latest
		// starts can sit anywhere in the trace.
		byStart := func(a, b plotters.Record) int { return a.Start.Compare(b.Start) }
		fmt.Fprintf(stdout, "span\t%s .. %s\n",
			slices.MinFunc(records, byStart).Start.Format("2006-01-02 15:04:05"),
			slices.MaxFunc(records, byStart).Start.Format("2006-01-02 15:04:05"))
	}

	feats := plotters.ExtractFeatures(records, plotters.FeatureOptions{Hosts: internal})
	fmt.Fprintf(stdout, "hosts\t%d\n\n", len(feats))
	if len(feats) == 0 {
		return nil
	}

	values := make(map[string][]float64, len(features))
	for _, name := range []string{"avgbytes", "failrate", "newip", "flows"} {
		for _, f := range feats {
			values[name] = append(values[name], features[name](f))
		}
		sum, err := stats.Summarize(values[name])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-9s %s\n", name, sum)
	}

	if *cdf != "" {
		ecdf, err := stats.NewECDF(values[*cdf])
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.FormatCDF(*cdf, ecdf.Sampled(100)))
	}
	return nil
}
