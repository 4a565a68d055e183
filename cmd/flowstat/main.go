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
	"flag"
	"fmt"
	"os"

	"plotters"
	"plotters/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowstat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		format    = flag.String("format", "binary", "trace format: "+plotters.TraceFormatNames())
		internals = flag.String("internal", "", "comma-separated internal CIDRs (empty = all initiators)")
		cdf       = flag.String("cdf", "", "dump a CDF: avgbytes, failrate, newip, or flows")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected exactly one trace file argument")
	}
	var records []plotters.Record
	_, _, err := plotters.ScanTraceFile(flag.Arg(0), *format, nil, plotters.FlowSampler{}, func(rec *plotters.Record) error {
		records = append(records, *rec)
		return nil
	})
	if err != nil {
		return err
	}
	var internal func(plotters.IP) bool
	if *internals != "" {
		internal, err = plotters.ParseSubnets(*internals)
		if err != nil {
			return err
		}
	}

	var totalBytes uint64
	failed := 0
	for i := range records {
		totalBytes += records[i].SrcBytes + records[i].DstBytes
		if records[i].Failed() {
			failed++
		}
	}
	fmt.Printf("records\t%d\nfailed\t%d (%.1f%%)\nbytes\t%d\n", len(records), failed,
		100*float64(failed)/float64(max(1, len(records))), totalBytes)
	if len(records) > 0 {
		fmt.Printf("span\t%s .. %s\n",
			records[0].Start.Format("2006-01-02 15:04:05"),
			records[len(records)-1].Start.Format("2006-01-02 15:04:05"))
	}

	feats := plotters.ExtractFeatures(records, plotters.FeatureOptions{Hosts: internal})
	fmt.Printf("hosts\t%d\n\n", len(feats))
	if len(feats) == 0 {
		return nil
	}

	features := map[string]func(*plotters.HostFeatures) float64{
		"avgbytes": (*plotters.HostFeatures).AvgBytesPerFlow,
		"failrate": (*plotters.HostFeatures).FailedRate,
		"newip":    (*plotters.HostFeatures).NewPeerFraction,
		"flows":    func(f *plotters.HostFeatures) float64 { return float64(f.Flows) },
	}
	order := []string{"avgbytes", "failrate", "newip", "flows"}
	for _, name := range order {
		vals := make([]float64, 0, len(feats))
		for _, f := range feats {
			vals = append(vals, features[name](f))
		}
		sum, err := stats.Summarize(vals)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %s\n", name, sum)
	}

	if *cdf != "" {
		get, ok := features[*cdf]
		if !ok {
			return fmt.Errorf("unknown CDF feature %q (want avgbytes, failrate, newip, or flows)", *cdf)
		}
		vals := make([]float64, 0, len(feats))
		for _, f := range feats {
			vals = append(vals, get(f))
		}
		ecdf, err := stats.NewECDF(vals)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(stats.FormatCDF(*cdf, ecdf.Sampled(100)))
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
