// Command synthgen synthesizes the evaluation corpus — CMU-like campus
// days with embedded Traders, plus the Storm and Nugache honeynet
// traces — and writes them as binary flow traces.
//
// Usage:
//
//	synthgen -out DIR [-days N] [-seed S] [-campus N] [-format binary|csv|jsonl|netflow|ipfix|sflow]
//
// The output directory receives day-<i>.flows, storm.flows, and
// nugache.flows (extension varies by format), plus a manifest.txt
// describing the ground truth.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/synth/plotter"
	"plotters/internal/synth/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("synthgen", flag.ContinueOnError)
	var (
		outDir  = fs.String("out", "", "output directory (required)")
		days    = fs.Int("days", 8, "number of campus days to synthesize")
		seed    = fs.Int64("seed", 42, "master random seed")
		campus  = fs.Int("campus", 360, "background campus hosts per day")
		format  = fs.String("format", "binary", "trace format: "+flowio.Names())
		gnut    = fs.Int("gnutella", 10, "Gnutella Traders per day")
		emule   = fs.Int("emule", 12, "eMule Traders per day")
		torrent = fs.Int("bittorrent", 20, "BitTorrent Traders per day")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir == "" {
		fs.Usage()
		return fmt.Errorf("-out is required")
	}
	tf, err := flowio.Lookup(*format)
	if err != nil {
		return err
	}
	cfg := scenario.DefaultDatasetConfig(*seed)
	cfg.Days = *days
	cfg.DayTemplate.CampusHosts = *campus
	cfg.DayTemplate.Gnutella = *gnut
	cfg.DayTemplate.EMule = *emule
	cfg.DayTemplate.BitTorrent = *torrent
	if cfg.Days <= 0 {
		return fmt.Errorf("-days must be positive, got %d", cfg.Days)
	}
	if err := cfg.DayTemplate.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("creating output dir: %w", err)
	}

	fmt.Fprintf(stderr, "synthesizing %d days (%d campus hosts, %d traders/day) + honeynet traces...\n",
		cfg.Days, *campus, *gnut+*emule+*torrent)
	ds, err := scenario.GenerateDataset(cfg)
	if err != nil {
		return err
	}

	var manifest strings.Builder
	fmt.Fprintf(&manifest, "seed\t%d\ndays\t%d\n", *seed, cfg.Days)
	for i, day := range ds.Days {
		name := fmt.Sprintf("day-%d%s", i, tf.Ext)
		if err := writeTrace(filepath.Join(*outDir, name), day.Records, tf); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "day\t%d\tfile\t%s\trecords\t%d\twindow\t%s\n",
			i, name, len(day.Records), day.Window.From.Format("2006-01-02"))
		traders := make([]string, 0, len(day.TraderHosts))
		for host, app := range day.TraderHosts {
			traders = append(traders, fmt.Sprintf("%s=%s", host, app))
		}
		sort.Strings(traders)
		fmt.Fprintf(&manifest, "day\t%d\ttraders\t%s\n", i, strings.Join(traders, ","))
		fmt.Fprintf(stderr, "  %s: %d records\n", name, len(day.Records))
	}
	for _, tr := range []struct {
		name  string
		trace *plotter.Trace
	}{
		{"storm", ds.Storm},
		{"nugache", ds.Nugache},
	} {
		name := tr.name + tf.Ext
		if err := writeTrace(filepath.Join(*outDir, name), tr.trace.Records, tf); err != nil {
			return err
		}
		bots := make([]string, len(tr.trace.Bots))
		for i, b := range tr.trace.Bots {
			bots[i] = b.String()
		}
		fmt.Fprintf(&manifest, "trace\t%s\tfile\t%s\trecords\t%d\tbots\t%s\n",
			tr.name, name, len(tr.trace.Records), strings.Join(bots, ","))
		fmt.Fprintf(stderr, "  %s: %d records, %d bots\n", name, len(tr.trace.Records), len(tr.trace.Bots))
	}
	manifestPath := filepath.Join(*outDir, "manifest.txt")
	if err := os.WriteFile(manifestPath, []byte(manifest.String()), 0o644); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	fmt.Fprintf(stderr, "wrote %s\n", manifestPath)
	return nil
}

func writeTrace(path string, records []flow.Record, tf *flowio.Format) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := flowio.WriteAll(tf.NewWriter(f), records); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
