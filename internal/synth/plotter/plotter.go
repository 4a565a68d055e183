// Package plotter generates botnet command-and-control traffic — the
// Plotters the pipeline must catch. Two bot models are provided, matching
// the paper's honeynet traces: Storm (13 bots, Overnet/Kademlia-based
// peer discovery with fixed machine timers) and Nugache (82 bots, TCP
// peer gossip with highly variable per-bot activity). Both produce
// 24-hour traces from honeynet-style source addresses; the overlay step
// later re-sources them onto campus hosts, exactly as the paper overlays
// its honeynet traces.
package plotter

import (
	"fmt"
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
)

// HoneynetSubnet is the address range bot traces are generated from
// before being overlaid onto campus hosts (RFC 2544 benchmarking space,
// guaranteed not to collide with campus or overlay addresses).
var HoneynetSubnet = flow.MustParseSubnet("198.18.0.0/24")

// Trace is a generated bot trace: the flow records plus the bot source
// addresses appearing in them.
type Trace struct {
	Records []flow.Record
	Bots    []flow.IP
}

// newBotnetOverlay builds the external botnet peer population shared by
// the bots of one trace. Bot peers churn like file-sharing peers do — the
// infected population turns machines on and off — but the *bots we
// monitor* keep re-contacting the peers they know.
func newBotnetOverlay(day time.Time, nodes int, sim *simnet.Simulator, avoid []flow.Subnet) (*kademlia.Overlay, error) {
	cfg := kademlia.OverlayConfig{
		Nodes:         nodes,
		Start:         day,
		Horizon:       26 * time.Hour,
		MedianSession: 40 * time.Minute,
		MedianOffline: 90 * time.Minute,
		SessionSigma:  1.0,
		AvoidSubnets:  append([]flow.Subnet{HoneynetSubnet}, avoid...),
		Port:          7871,
	}
	ov, err := kademlia.NewOverlay(cfg, sim.Fork())
	if err != nil {
		return nil, fmt.Errorf("plotter: building botnet overlay: %w", err)
	}
	return ov, nil
}

// dayStart returns midnight of the trace day: honeynet traces cover a
// full 24 hours.
func dayStart(day time.Time) time.Time {
	return time.Date(day.Year(), day.Month(), day.Day(), 0, 0, 0, 0, time.UTC)
}
