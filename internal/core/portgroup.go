package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"plotters/internal/flow"
)

// The paper's §VI notes a limitation: a Plotter that infects a heavy
// Trader can hide inside the Trader's traffic, and suggests separating a
// host's traffic by application — e.g. by destination port groups — and
// applying the tests to each group individually. This file implements
// that extension: each (host, port-group) pair becomes a "virtual host"
// with its own features, so a bot's control traffic is tested in
// isolation from the file-sharing bulk on the same machine.

// minGroupFlows is the fewest flows a (host, group) pair needs to be
// analyzed; sparser groups are left out (too little evidence either way).
const minGroupFlows = 20

// defaultPortGrouper maps a flow to its application group by well-known
// ports: the conventional file-sharing ports, web, mail, DNS/NTP
// infrastructure, and a catch-all for everything else (bucketed by exact
// destination port for unprivileged ports, so unknown P2P protocols on a
// fixed port still group together). Flows mapping to the same
// (initiator, group) are analyzed together.
func defaultPortGrouper(r *flow.Record) string {
	switch r.DstPort {
	case 80, 443, 8080:
		return "web"
	case 25, 110, 143, 465, 587, 993, 995:
		return "mail"
	case 53, 123:
		return "infra"
	case 6346, 6347:
		return "gnutella"
	case 4661, 4662, 4672:
		return "emule"
	case 6881, 6882, 6883, 6884, 6885, 6886, 6887, 6888, 6889:
		return "bittorrent"
	}
	if r.DstPort >= 1024 {
		return fmt.Sprintf("port-%d", r.DstPort)
	}
	return "other"
}

// virtualHost identifies one (host, application group) analysis unit.
type virtualHost struct {
	Host  flow.IP
	Group string
}

// PortGroupResult is the outcome of the per-application pipeline.
type PortGroupResult struct {
	// Result is the pipeline outcome over virtual hosts (the HostSet
	// members are synthetic addresses; use Suspects for real ones).
	Result *Result
	// Suspects maps each flagged real host to the application groups
	// whose traffic tripped the detector.
	Suspects map[flow.IP][]string
}

// FindPlottersByApplication runs FindPlotters over per-application
// virtual hosts: each internal host's flows are split by port group, a
// synthetic source address is minted per (host, group), and the standard
// pipeline runs over the rewritten records. A bot whose control channel
// shares a machine with a heavy file-sharer is then judged on its own
// port group's behavior rather than the blended host profile.
//
// Splitting multiplies the θ_hm population — every real host becomes
// several virtual hosts — and the pairwise EMD matrix grows with its
// square, so this variant leans hardest on the parallel distance-matrix
// engine; cfg.Parallelism applies to the virtual-host matrix exactly as
// it does to the plain pipeline.
func FindPlottersByApplication(records []flow.Record, internal func(flow.IP) bool, cfg Config) (*PortGroupResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// First pass: count flows per (host, group) to allocate virtual
	// addresses only for groups with enough traffic.
	counts := make(map[virtualHost]int)
	for i := range records {
		r := &records[i]
		if internal != nil && !internal(r.Src) {
			continue
		}
		counts[virtualHost{Host: r.Src, Group: defaultPortGrouper(r)}]++
	}
	keys := make([]virtualHost, 0, len(counts))
	for vh, n := range counts {
		if n >= minGroupFlows {
			keys = append(keys, vh)
		}
	}
	slices.SortFunc(keys, func(a, b virtualHost) int {
		if c := cmp.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		return cmp.Compare(a.Group, b.Group)
	})
	if len(keys) == 0 {
		return nil, fmt.Errorf("core: no (host, group) pairs with >= %d flows", minGroupFlows)
	}

	// Mint synthetic addresses in a reserved range (0.x.y.z is never a
	// real initiator).
	toVirtual := make(map[virtualHost]flow.IP, len(keys))
	mapping := make(map[flow.IP]virtualHost, len(keys))
	kept := 0
	for i, vh := range keys {
		addr := flow.IP(uint32(i) + 1)
		toVirtual[vh] = addr
		mapping[addr] = vh
		kept += counts[vh]
	}

	// Second pass: rewrite sources to virtual addresses. The first pass
	// already counted exactly how many flows survive the minGroupFlows
	// floor, so size the rewrite buffer to that.
	rewritten := make([]flow.Record, 0, kept)
	for i := range records {
		r := records[i]
		if internal != nil && !internal(r.Src) {
			continue
		}
		vh := virtualHost{Host: r.Src, Group: defaultPortGrouper(&r)}
		addr, ok := toVirtual[vh]
		if !ok {
			continue
		}
		r.Src = addr
		rewritten = append(rewritten, r)
	}

	res, err := FindPlotters(rewritten, nil, cfg)
	if err != nil {
		return nil, err
	}
	out := &PortGroupResult{Result: res, Suspects: make(map[flow.IP][]string)}
	for addr := range res.Suspects {
		vh := mapping[addr]
		out.Suspects[vh.Host] = append(out.Suspects[vh.Host], vh.Group)
	}
	for _, groups := range out.Suspects {
		sort.Strings(groups)
	}
	return out, nil
}
