package eval

import (
	"fmt"
	"math"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/label"
	"plotters/internal/stats"
	"plotters/internal/synth"
)

// This file regenerates the paper's dataset-characterization figures
// (Figures 1, 2, 3, and 5): per-host feature CDFs and example
// interstitial-time distributions, computed from one day of the
// synthesized corpus exactly as the paper computes them from one day of
// the CMU, Trader, and honeynet traces.

// DatasetCDFs holds one per-host feature CDF per dataset, the shape of
// Figures 1 and 5.
type DatasetCDFs struct {
	// CMU is the campus dataset *excluding* labeled Traders.
	CMU []stats.CDFPoint
	// Trader covers the payload-labeled file-sharing hosts.
	Trader []stats.CDFPoint
	// Storm and Nugache cover the raw honeynet traces (per bot), before
	// overlay, as in the paper's Figures 1 and 5.
	Storm   []stats.CDFPoint
	Nugache []stats.CDFPoint
}

// featureCDFs builds the four per-dataset CDFs of one feature.
func (s *Suite) featureCDFs(get func(*flow.HostFeatures) float64, onlySuccessful bool) (*DatasetCDFs, error) {
	day := s.ds.Days[0]
	feats := flow.ExtractFeatures(day.Records, flow.FeatureOptions{
		Hosts:        synth.IsInternal,
		NewPeerGrace: s.cfg.NewPeerGrace,
	})
	traders := label.Traders(day.Records, synth.IsInternal)

	var cmuVals, traderVals []float64
	for host, f := range feats {
		if onlySuccessful && f.SuccessfulFlows() == 0 {
			continue
		}
		if traders[host] {
			traderVals = append(traderVals, get(f))
		} else {
			cmuVals = append(cmuVals, get(f))
		}
	}
	botVals := func(records []flow.Record, bots []flow.IP) []float64 {
		feats := s.windowedBotFeatures(records)
		var vals []float64
		// Inbound (peer-initiated) flows put external peers in the
		// feature map; only the bots themselves belong in the CDF.
		for _, bot := range bots {
			f := feats[bot]
			if f == nil || (onlySuccessful && f.SuccessfulFlows() == 0) {
				continue
			}
			vals = append(vals, get(f))
		}
		return vals
	}
	out := &DatasetCDFs{}
	for _, part := range []struct {
		dst  *[]stats.CDFPoint
		vals []float64
		name string
	}{
		{&out.CMU, cmuVals, "cmu"},
		{&out.Trader, traderVals, "trader"},
		{&out.Storm, botVals(s.ds.Storm.Records, s.ds.Storm.Bots), "storm"},
		{&out.Nugache, botVals(s.ds.Nugache.Records, s.ds.Nugache.Bots), "nugache"},
	} {
		ecdf, err := stats.NewECDF(part.vals)
		if err != nil {
			return nil, fmt.Errorf("eval: %s CDF: %w", part.name, err)
		}
		*part.dst = ecdf.Sampled(120)
	}
	return out, nil
}

// Figure1 reproduces Figure 1: the cumulative distribution of average
// flow size (bytes uploaded per flow) per host, one curve per dataset.
// The paper's shape: Plotters smallest, campus in the middle, Traders
// orders of magnitude larger.
func (s *Suite) Figure1() (*DatasetCDFs, error) {
	return s.featureCDFs((*flow.HostFeatures).AvgBytesPerFlow, false)
}

// Figure5 reproduces Figure 5: the cumulative distribution of the
// failed-connection percentage per host (hosts with at least one
// successful connection). P2P hosts — Traders and Plotters alike — fail
// far more often than the campus background, which is what the initial
// data-reduction step exploits.
func (s *Suite) Figure5() (*DatasetCDFs, error) {
	return s.featureCDFs(func(f *flow.HostFeatures) float64 { return f.FailedRate() * 100 }, true)
}

// Fig2Series is the Figure 2 data: for one example host, the cumulative
// number of distinct destinations contacted hour by hour, and how many of
// them were new (first contacted after the host's first hour of
// activity).
type Fig2Series struct {
	// Hour is the hour offset within the window (1-based, cumulative).
	Hour []int
	// TotalIPs is the cumulative distinct destination count.
	TotalIPs []int
	// NewIPs is the cumulative count of destinations first contacted
	// after the first hour of activity.
	NewIPs []int
	// NewFraction is NewIPs/TotalIPs per hour.
	NewFraction []float64
}

// Fig2Result pairs the Trader and Storm example series of Figure 2.
type Fig2Result struct {
	Trader Fig2Series
	Storm  Fig2Series
}

// Figure2 reproduces Figure 2: new-IP accumulation for a representative
// Trader versus a representative Storm bot over one day. The paper's
// shape: >55% of the Trader's contacts are new, >60% of the Storm bot's
// contacts were contacted before.
func (s *Suite) Figure2() (*Fig2Result, error) {
	day := s.ds.Days[0]
	traders := label.Traders(day.Records, synth.IsInternal)
	// Representative Trader: the labeled Trader with the most flows.
	feats := flow.ExtractFeatures(day.Records, flow.FeatureOptions{Hosts: synth.IsInternal, NewPeerGrace: s.cfg.NewPeerGrace})
	var trader flow.IP
	bestFlows := -1
	for h := range traders {
		if f := feats[h]; f != nil && f.Flows > bestFlows {
			bestFlows = f.Flows
			trader = h
		}
	}
	if bestFlows < 0 {
		return nil, fmt.Errorf("eval: no labeled Traders on day 0")
	}
	// Representative Storm bot: the first bot in the raw trace.
	if len(s.ds.Storm.Bots) == 0 {
		return nil, fmt.Errorf("eval: storm trace has no bots")
	}
	bot := s.ds.Storm.Bots[0]

	traderSeries := newIPSeries(day.Records, trader, s.cfg.NewPeerGrace)
	window := day.Window
	stormSeries := newIPSeries(window.Filter(s.ds.Storm.Records), bot, s.cfg.NewPeerGrace)
	return &Fig2Result{Trader: traderSeries, Storm: stormSeries}, nil
}

// newIPSeries computes the hourly cumulative contact series for one host.
func newIPSeries(records []flow.Record, host flow.IP, grace time.Duration) Fig2Series {
	ordered := make([]flow.Record, 0, len(records))
	for i := range records {
		if records[i].Src == host {
			ordered = append(ordered, records[i])
		}
	}
	flow.SortByStart(ordered)
	var series Fig2Series
	if len(ordered) == 0 {
		return series
	}
	first := ordered[0].Start
	seen := make(map[flow.IP]bool)
	isNew := make(map[flow.IP]bool)
	idx := 0
	for hour := 1; hour <= 24; hour++ {
		boundary := first.Add(time.Duration(hour) * time.Hour)
		for idx < len(ordered) && ordered[idx].Start.Before(boundary) {
			r := &ordered[idx]
			if !seen[r.Dst] {
				seen[r.Dst] = true
				if r.Start.Sub(first) > grace {
					isNew[r.Dst] = true
				}
			}
			idx++
		}
		series.Hour = append(series.Hour, hour)
		series.TotalIPs = append(series.TotalIPs, len(seen))
		series.NewIPs = append(series.NewIPs, len(isNew))
		frac := 0.0
		if len(seen) > 0 {
			frac = float64(len(isNew)) / float64(len(seen))
		}
		series.NewFraction = append(series.NewFraction, frac)
		if idx >= len(ordered) && hour >= 6 {
			break
		}
	}
	return series
}

// Fig3Host is one panel of Figure 3: the interstitial-time histogram of a
// representative host.
type Fig3Host struct {
	Name string
	// BinSeconds are bin centers in seconds (de-logged when the pipeline
	// uses the log axis).
	BinSeconds []float64
	Mass       []float64
	Samples    int
}

// Figure3 reproduces Figure 3: per-destination flow interstitial time
// distributions for a Storm bot, a Nugache bot, a BitTorrent host, and a
// Gnutella host. Bots show sharp timer spikes; Traders do not.
func (s *Suite) Figure3() ([]Fig3Host, error) {
	day := s.ds.Days[0]
	window := day.Window

	panels := make([]Fig3Host, 0, 4)
	addPanel := func(name string, records []flow.Record, host flow.IP) error {
		feats := flow.ExtractFeatures(records, flow.FeatureOptions{NewPeerGrace: s.cfg.NewPeerGrace})
		f := feats[host]
		if f == nil || len(f.Interstitials) < 2 {
			return fmt.Errorf("eval: host %v has too few interstitial samples for Figure 3", host)
		}
		sketch, err := core.HMSketch(f.Interstitials, s.cfg)
		if err != nil {
			return err
		}
		if !s.cfg.RawTimeScale {
			for i, p := range sketch.Positions {
				sketch.Positions[i] = math.Expm1(p)
			}
		}
		panels = append(panels, Fig3Host{
			Name: name, BinSeconds: sketch.Positions, Mass: sketch.Weights, Samples: len(f.Interstitials),
		})
		return nil
	}

	if len(s.ds.Storm.Bots) == 0 || len(s.ds.Nugache.Bots) == 0 {
		return nil, fmt.Errorf("eval: missing bot traces")
	}
	if err := addPanel("storm", window.Filter(s.ds.Storm.Records), s.ds.Storm.Bots[0]); err != nil {
		return nil, err
	}
	nugache, err := busiestBot(window.Filter(s.ds.Nugache.Records), s.ds.Nugache.Bots)
	if err != nil {
		return nil, err
	}
	if err := addPanel("nugache", window.Filter(s.ds.Nugache.Records), nugache); err != nil {
		return nil, err
	}
	for _, app := range []struct {
		name string
		want label.App
	}{
		{"bittorrent", label.AppBitTorrent},
		{"gnutella", label.AppGnutella},
	} {
		host, err := busiestTrader(day.Records, app.want)
		if err != nil {
			return nil, err
		}
		if err := addPanel(app.name, day.Records, host); err != nil {
			return nil, err
		}
	}
	return panels, nil
}

// busiestBot returns the bot with the most in-window flows.
func busiestBot(records []flow.Record, bots []flow.IP) (flow.IP, error) {
	counts := make(map[flow.IP]int)
	for i := range records {
		counts[records[i].Src]++
	}
	best, bestCount := flow.IP(0), -1
	for _, b := range bots {
		if counts[b] > bestCount {
			best, bestCount = b, counts[b]
		}
	}
	if bestCount <= 0 {
		return 0, fmt.Errorf("eval: no active bot found")
	}
	return best, nil
}

// busiestTrader returns the most active host labeled with the given app.
func busiestTrader(records []flow.Record, want label.App) (flow.IP, error) {
	labels := label.LabelHosts(records, synth.IsInternal)
	counts := make(map[flow.IP]int)
	for i := range records {
		counts[records[i].Src]++
	}
	best, bestCount := flow.IP(0), -1
	for host, hl := range labels {
		if hl.Primary() != want {
			continue
		}
		if counts[host] > bestCount {
			best, bestCount = host, counts[host]
		}
	}
	if bestCount <= 0 {
		return 0, fmt.Errorf("eval: no %v Trader found", want)
	}
	return best, nil
}
