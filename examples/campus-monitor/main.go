// Campus-monitor: the network administrator's view. Runs the detection
// pipeline day after day over a multi-day border trace, the way the
// paper's administrator would deploy it: thresholds recomputed from each
// day's traffic, suspects accumulated across days, and persistent
// offenders (hosts flagged on several days) escalated.
//
// With -listen the same monitor goes live: instead of synthesizing a
// dataset it binds a UDP socket, ingests NetFlow exports from real (or
// flowreplay'd) exporters into the windowed engine, and escalates hosts
// flagged across successive detection windows. Stop with Ctrl-C to get
// the repeat-offender summary. Add -state-dir to make the live monitor
// crash-safe: detection state is checkpointed continuously and a
// restart resumes mid-window instead of forgetting every host the
// previous process had profiled.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"plotters"
)

const days = 4

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campus-monitor:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "", "monitor live NetFlow exports on this UDP address (e.g. :2055) instead of a synthetic dataset")
		window    = flag.Duration("window", 6*time.Hour, "detection window length for -listen mode")
		skew      = flag.Duration("skew", 5*time.Minute, "out-of-order tolerance for -listen mode")
		internals = flag.String("internal", "128.2.0.0/16,128.237.0.0/16", "comma-separated internal CIDR prefixes for -listen mode")
		stateDir  = flag.String("state-dir", "", "durable-state directory for -listen mode; a restart resumes from the last checkpoint")
	)
	flag.Parse()
	if *listen != "" {
		return runLive(*listen, *window, *skew, *internals, *stateDir)
	}
	if *stateDir != "" {
		return fmt.Errorf("-state-dir requires -listen (the synthetic run is deterministic; re-run it instead)")
	}
	return runSynthetic()
}

func runSynthetic() error {
	cfg := plotters.DefaultDatasetConfig(1234)
	cfg.Days = days
	cfg.DayTemplate.CampusHosts = 220
	fmt.Printf("synthesizing %d days of border traffic...\n", days)
	ds, err := plotters.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	suite, err := plotters.NewSuite(ds, plotters.DefaultConfig(), 5)
	if err != nil {
		return err
	}

	// flaggedDays counts, per host, how many days the pipeline flagged it.
	flaggedDays := make(map[plotters.IP]int)
	hostTruth := make(map[plotters.IP]string)

	for i := 0; i < days; i++ {
		day, err := suite.Day(i)
		if err != nil {
			return err
		}
		res, err := day.Analysis.FindPlotters()
		if err != nil {
			return err
		}
		fmt.Printf("\n=== day %d (%s) ===\n", i, day.Day.Window.From.Format("2006-01-02"))
		fmt.Printf("observed %d internal hosts; thresholds: failRate>%.3f, bytes/flow<%.0f, newIPs<%.3f, spread≤%.3f\n",
			len(day.Analysis.Hosts()), res.Reduction.Threshold,
			res.Volume.Threshold, res.Churn.Threshold, res.HM.Threshold)

		// The assignment of bots to hosts changes per day (as in the
		// paper's evaluation), so truth is tracked per day.
		rates := plotters.Score(res.Suspects, day.Analysis.Hosts(), day.Storm.Union(day.Nugache))
		fmt.Printf("flagged %d hosts: %d true bots (of %d implanted), %d false positives\n",
			len(res.Suspects), rates.TP, rates.Plotters, rates.FP)

		for host := range res.Suspects {
			flaggedDays[host]++
			switch {
			case day.Storm[host]:
				hostTruth[host] = "storm"
			case day.Nugache[host]:
				hostTruth[host] = "nugache"
			case day.Traders[host]:
				if hostTruth[host] == "" {
					hostTruth[host] = "trader"
				}
			default:
				if hostTruth[host] == "" {
					hostTruth[host] = "campus"
				}
			}
		}
	}

	printOffenders(flaggedDays, hostTruth, days, "days")
	return nil
}

// runLive is the deployed shape of the same monitor: NetFlow exports
// arrive over UDP, each sealed window runs the full pipeline, and
// repeat offenders accumulate across windows instead of days. There is
// no ground truth on a live network — the repeat count is what the
// operator triages.
//
// With a state directory, detection state survives crashes: records
// are write-ahead logged, the engine is checkpointed every minute, and
// a restart recovers the previous process's windows mid-flight. Note
// the offender tallies re-count windows that recovery re-emits
// (at-least-once delivery) — the checkpointed truth is the engine
// state; the tallies are a per-process view.
func runLive(addr string, window, skew time.Duration, internals, stateDir string) error {
	internal, err := plotters.ParseSubnets(internals)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	flaggedWindows := make(map[plotters.IP]int)
	windows := 0
	rep, err := plotters.RunLive(ctx, plotters.LiveConfig{
		Addr: addr,
		Engine: plotters.EngineConfig{
			Window:   window,
			MaxSkew:  skew,
			Internal: internal,
			StateDir: stateDir,
			Core:     plotters.DefaultConfig(),
		},
		CheckpointEvery: time.Minute,
		WALSyncEvery:    256, // write + fsync per 256 records: don't gate UDP ingest on disk latency
		Ready: func(bound net.Addr, recovered *plotters.CheckpointRecovery) {
			if recovered != nil && (recovered.SnapshotLoaded || recovered.Replayed > 0) {
				fmt.Printf("resumed from %s: snapshot loaded=%v, %d records replayed\n",
					stateDir, recovered.SnapshotLoaded, recovered.Replayed)
			}
			fmt.Printf("monitoring NetFlow exports on %s (Ctrl-C for the summary)\n", bound)
		},
	}, func(res *plotters.WindowResult) error {
		windows++
		partial := ""
		if res.Partial {
			partial = " (partial)"
		}
		fmt.Printf("window %d %s%s: %d hosts, %d suspects\n",
			res.Index, res.Window, partial, res.Hosts, len(res.Detection.Suspects))
		for host := range res.Detection.Suspects {
			flaggedWindows[host]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if stateDir != "" {
		fmt.Printf("state checkpointed to %s; restart with the same flags to resume\n", stateDir)
	}
	if rep.Dropped > 0 {
		fmt.Printf("%d records arrived beyond the %v skew tolerance and were dropped\n", rep.Dropped, skew)
	}
	printOffenders(flaggedWindows, nil, max(windows, 1), "windows")
	return nil
}

// printOffenders escalates repeat offenders. Because bots are
// re-assigned to random hosts each day, repeat flags on the same host
// indicate a stable behavioral false positive — exactly what an
// operator would review and whitelist. truth may be nil (live mode has
// no ground truth).
func printOffenders(flagged map[plotters.IP]int, truth map[plotters.IP]string, periods int, unit string) {
	fmt.Printf("\n=== summary after %d %s ===\n", periods, unit)
	type offender struct {
		host  plotters.IP
		count int
	}
	var offenders []offender
	for host, n := range flagged {
		offenders = append(offenders, offender{host, n})
	}
	sort.Slice(offenders, func(a, b int) bool {
		if offenders[a].count != offenders[b].count {
			return offenders[a].count > offenders[b].count
		}
		return offenders[a].host < offenders[b].host
	})
	fmt.Printf("%d distinct hosts flagged at least once\n", len(offenders))
	shown := 0
	for _, o := range offenders {
		if shown >= 15 {
			fmt.Printf("  ... and %d more\n", len(offenders)-shown)
			break
		}
		label := ""
		if truth != nil {
			label = fmt.Sprintf(" (%s)", truth[o.host])
		}
		fmt.Printf("  %-16s flagged on %d/%d %s%s\n", o.host, o.count, periods, unit, label)
		shown++
	}
}
