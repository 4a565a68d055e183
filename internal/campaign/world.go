package campaign

import (
	"fmt"
	"strings"

	"plotters/internal/synth/scenario"
)

// Scale selects how large each world's campus is. ScalePaper matches the
// canonical evaluation corpus (and the seed-42 goldens); ScaleSmall
// matches cmd/experiments -scale small; ScaleTiny is the CI smoke size.
type Scale string

// Supported scales.
const (
	ScaleTiny  Scale = "tiny"
	ScaleSmall Scale = "small"
	ScalePaper Scale = "paper"
)

// baseDay returns the plain campus day shape at the given scale.
func baseDay(scale Scale) (scenario.DayConfig, error) {
	cfg := scenario.DefaultDayConfig(scenario.DefaultDatasetConfig(0).FirstDay, 0)
	switch scale {
	case ScalePaper:
	case ScaleSmall:
		cfg.CampusHosts = 150
		cfg.Gnutella = 5
		cfg.EMule = 5
		cfg.BitTorrent = 8
		cfg.PeerNetworkNodes = 1200
	case ScaleTiny:
		cfg.CampusHosts = 60
		cfg.Gnutella = 2
		cfg.EMule = 2
		cfg.BitTorrent = 3
		cfg.PeerNetworkNodes = 400
	default:
		return cfg, fmt.Errorf("campaign: unknown scale %q (have %s, %s, %s)", scale, ScaleTiny, ScaleSmall, ScalePaper)
	}
	return cfg, nil
}

// World is one named synthetic-world preset: a day template the runner
// stamps with per-day seeds.
type World struct {
	// Name is the preset name.
	Name string
	// Template shapes each generated day (Day and Seed are overwritten).
	Template scenario.DayConfig
}

// WorldNames lists the presets in canonical order: the plain campus
// first (the goldens' world), then each enrichment.
func WorldNames() []string {
	return []string{"baseline", "edonkey", "cross-swarm", "nat-campus", "dht-crawler", "diurnal-10x"}
}

// NewWorld builds one preset at the given scale.
//
//   - baseline: the canonical campus (bit-identical to the seed goldens).
//   - edonkey: adds server-mediated eDonkey Traders with the rare-file
//     long tail (Allali et al.).
//   - cross-swarm: adds BitTorrent Traders trading in 4 swarms at once
//     (Scanlon et al.).
//   - nat-campus: adds NAT gateways aggregating several user personas
//     plus a file-sharing client behind single border IPs.
//   - dht-crawler: adds DHT crawler/indexer hosts — bot-like churn,
//     Trader-like volume, no coordination (the designed hard case).
//   - diurnal-10x: the campus at 10× host count with mixed-timezone
//     diurnal activity.
func NewWorld(name string, scale Scale) (World, error) {
	cfg, err := baseDay(scale)
	if err != nil {
		return World{}, err
	}
	switch strings.ToLower(name) {
	case "baseline":
	case "edonkey":
		cfg.EDonkey = max(2, cfg.EMule)
	case "cross-swarm":
		cfg.CrossSwarm = max(2, cfg.BitTorrent/2)
		cfg.SwarmsPerPeer = 4
	case "nat-campus":
		cfg.NATGateways = max(2, cfg.CampusHosts/60)
		cfg.NATHostsBehind = 6
	case "dht-crawler":
		cfg.DHTCrawlers = max(2, cfg.CampusHosts/120)
	case "diurnal-10x":
		cfg.CampusHosts *= 10
		cfg.Gnutella *= 10
		cfg.EMule *= 10
		cfg.BitTorrent *= 10
		cfg.PeerNetworkNodes *= 2
		cfg.TimezoneSpread = 12
	default:
		return World{}, fmt.Errorf("campaign: unknown world %q (have %s)", name, strings.Join(WorldNames(), ", "))
	}
	return World{Name: strings.ToLower(name), Template: cfg}, nil
}

// Worlds resolves a list of preset names at one scale.
func Worlds(names []string, scale Scale) ([]World, error) {
	out := make([]World, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		w, err := NewWorld(n, scale)
		if err != nil {
			return nil, err
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("campaign: world %q listed twice", w.Name)
		}
		seen[w.Name] = true
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: no worlds listed")
	}
	return out, nil
}

// honeynetBots returns per-trace bot counts for the scale. Paper and
// small keep the canonical 13 Storm / 82 Nugache bots; the tiny CI
// campus has too few active hosts to absorb 95 bots, so tiny shrinks
// both proportionally.
func honeynetBots(scale Scale) (storm, nugache int) {
	if scale == ScaleTiny {
		return 4, 16
	}
	return 13, 82
}
