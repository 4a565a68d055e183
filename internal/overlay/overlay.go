// Package overlay implements the paper's evaluation methodology (§V):
// honeynet bot traces are overlaid onto the campus traffic by assigning
// each bot to a randomly selected active internal host, rewriting the
// bot's flows to originate from that host, and merging them with the
// host's own traffic. The detection pipeline then sees hosts that exhibit
// their normal connection patterns *plus* Plotter activity.
package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"plotters/internal/flow"
)

// ActiveHosts returns the internal hosts that initiated at least one
// successful flow in the records — the paper's pool of overlay targets.
func ActiveHosts(records []flow.Record, internal func(flow.IP) bool) []flow.IP {
	seen := make(map[flow.IP]bool)
	for i := range records {
		r := &records[i]
		if r.Failed() {
			continue
		}
		if internal != nil && !internal(r.Src) {
			continue
		}
		seen[r.Src] = true
	}
	hosts := make([]flow.IP, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	// Deterministic order before shuffling so assignment depends only on
	// the caller's RNG.
	slices.Sort(hosts)
	return hosts
}

// Assignment maps bot trace addresses to the internal hosts that will
// appear to run them.
type Assignment map[flow.IP]flow.IP

// Retime shifts records by whole days so the trace lands on day (the
// trace's first record defines its origin day). The input is not
// modified.
func Retime(records []flow.Record, day time.Time) []flow.Record {
	if len(records) == 0 {
		return nil
	}
	first := records[0].Start
	for i := range records {
		if records[i].Start.Before(first) {
			first = records[i].Start
		}
	}
	from := time.Date(first.Year(), first.Month(), first.Day(), 0, 0, 0, 0, time.UTC)
	to := time.Date(day.Year(), day.Month(), day.Day(), 0, 0, 0, 0, time.UTC)
	delta := to.Sub(from)
	out := make([]flow.Record, len(records))
	for i, r := range records {
		r.Start = r.Start.Add(delta)
		r.End = r.End.Add(delta)
		out[i] = r
	}
	return out
}

// Rewrite re-addresses records according to the assignment: outbound bot
// flows (bot as source) are re-sourced to the assigned host, inbound bot
// flows (bot as destination — peers connecting to the bot) are
// re-destined. Records touching no assigned bot address are dropped. The
// input is not modified.
func Rewrite(records []flow.Record, assignment Assignment) []flow.Record {
	out := make([]flow.Record, 0, len(records))
	for _, r := range records {
		matched := false
		if host, ok := assignment[r.Src]; ok {
			r.Src = host
			matched = true
		}
		if host, ok := assignment[r.Dst]; ok {
			r.Dst = host
			matched = true
		}
		if !matched {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Merge combines record sets into one time-sorted slice.
func Merge(sets ...[]flow.Record) []flow.Record {
	var total int
	for _, s := range sets {
		total += len(s)
	}
	out := make([]flow.Record, 0, total)
	for _, s := range sets {
		out = append(out, s...)
	}
	flow.SortByStart(out)
	return out
}

// Overlaid is the result of overlaying one or more bot traces onto a
// day's records.
type Overlaid struct {
	// Records is the merged, window-filtered, time-sorted traffic.
	Records []flow.Record
	// BotHosts maps each internal host carrying bot traffic to the trace
	// label it carries (e.g. "storm").
	BotHosts map[flow.IP]string
	// BotFlows counts, per carrying host, the bot-trace flows that landed
	// inside the window (the host's own traffic excluded) — the quantity
	// behind the paper's Figure 10.
	BotFlows map[flow.IP]int
}

// Trace pairs a bot trace's records with a label for scoring.
type Trace struct {
	Label   string
	Records []flow.Record
	Bots    []flow.IP
}

// Overlay assigns every trace's bots to distinct active hosts, retimes
// the traces onto the window's day, rewrites sources, merges everything,
// and filters to the window. Distinctness holds across traces too: a
// host carries at most one bot.
func Overlay(rng *rand.Rand, base []flow.Record, window flow.Window, internal func(flow.IP) bool, traces ...Trace) (*Overlaid, error) {
	candidates := ActiveHosts(base, internal)
	var totalBots int
	for _, t := range traces {
		totalBots += len(t.Bots)
	}
	if len(candidates) < totalBots {
		return nil, fmt.Errorf("overlay: %d bots across traces but only %d active hosts", totalBots, len(candidates))
	}
	perm := rng.Perm(len(candidates))
	next := 0

	merged := [][]flow.Record{base}
	botHosts := make(map[flow.IP]string, totalBots)
	botFlows := make(map[flow.IP]int, totalBots)
	for _, t := range traces {
		assignment := make(Assignment, len(t.Bots))
		for _, b := range t.Bots {
			host := candidates[perm[next]]
			next++
			assignment[b] = host
			botHosts[host] = t.Label
		}
		retimed := Retime(t.Records, window.From)
		rewritten := window.Filter(Rewrite(retimed, assignment))
		for i := range rewritten {
			if _, ok := botHosts[rewritten[i].Src]; ok {
				botFlows[rewritten[i].Src]++
			} else if _, ok := botHosts[rewritten[i].Dst]; ok {
				botFlows[rewritten[i].Dst]++
			}
		}
		merged = append(merged, rewritten)
	}
	all := Merge(merged...)
	return &Overlaid{Records: window.Filter(all), BotHosts: botHosts, BotFlows: botFlows}, nil
}
