package flow

import (
	"cmp"
	"slices"
	"time"
)

// accumulator folds records into per-host features: every host's
// HostFeatures by value in a slot, one destination table keyed by
// (slot, destination) for all of them, and their interstitial gaps on
// per-host lists of fixed-size chunks drawn from shared pages. A store
// shard keeps one for the life of the store; batch extraction,
// MergePanes and NewPaneFromState each fold into a fresh one and seal
// it once.
//
// seal copies the open pane out into exact-size arrays and resets the
// accumulator in place: the slots are truncated, the table is cleared,
// and every chunk goes back to the pages. Nothing is given back to the
// runtime, so once an accumulator has sealed its busiest pane, folding
// a record allocates nothing, and it holds what that one pane needed —
// not what each host needed at its own peak.
type accumulator struct {
	hosts []hostSlot
	dests destTable
	gaps  gapPool
	// sort is the seal's radix-sort scratch, two buffers of one key per
	// table entry; at is one cursor per host slot.
	sort [2][]sortKey
	at   []int32
}

// hostSlot is one host's state in the open pane. Its Interstitials stay
// nil: the gaps are on chunks, head first, tail last, nGaps of them.
type hostSlot struct {
	feats      HostFeatures
	firstSeen  int64 // feats.FirstSeen as Unix ns, what observe compares with
	queue      int32 // the store's queue for the host, noEntry outside a store
	head, tail int32 // first and last chunk, noChunk when the host has no gap
	nGaps      int32
}

// open gives host a slot in the open pane, with its grace period
// starting at first (Unix ns), and returns it.
func (a *accumulator) open(host IP, first int64, queue int32) int32 {
	a.hosts = append(a.hosts, hostSlot{
		feats:     HostFeatures{Host: host, FirstSeen: time.Unix(0, first).UTC()},
		firstSeen: first,
		queue:     queue,
		head:      noChunk,
		tail:      noChunk,
	})
	return int32(len(a.hosts) - 1)
}

// observe folds one record into slot s: one probe of the table, whose
// entry is read and updated in place. Batch extraction and the store
// share it, so their semantics cannot drift.
func (a *accumulator) observe(s int32, c *compactRecord, grace time.Duration) {
	h := &a.hosts[s]
	f := &h.feats
	f.Flows++
	if c.state == StateFailed {
		f.FailedFlows++
	}
	f.BytesUploaded += c.srcBytes
	d, fresh := a.dests.upsert(destKey(s, c.dst))
	if fresh {
		d.first = c.start
		f.Peers++
		if c.start-h.firstSeen > int64(grace) {
			f.NewPeers++
		}
	} else {
		a.addGap(h, time.Duration(c.start-d.last).Seconds())
	}
	d.last = c.start
}

// addGap appends one gap to h's chunks.
func (a *accumulator) addGap(h *hostSlot, gap float64) {
	i := h.nGaps % chunkGaps
	if i == 0 {
		c := a.gaps.chunk()
		if h.head == noChunk {
			h.head = c
		} else {
			*a.gaps.next(h.tail) = c
		}
		h.tail = c
	}
	a.gaps.gaps(h.tail)[i] = gap
	h.nGaps++
}

// copyGaps copies h's gaps, in the order they were folded, into dst,
// which has room for exactly that many.
func (a *accumulator) copyGaps(h *hostSlot, dst []float64) {
	c := h.head
	for ; len(dst) > chunkGaps; c = *a.gaps.next(c) {
		*(*[chunkGaps]float64)(dst) = *a.gaps.gaps(c)
		dst = dst[chunkGaps:]
	}
	copy(dst, a.gaps.gaps(c)[:])
}

// load puts a snapshotted host in a fresh slot, as the folds that made
// it left it, and returns the slot.
func (a *accumulator) load(hs *HostState, queue int32) int32 {
	s := a.open(hs.Feats.Host, hs.Feats.FirstSeen.UnixNano(), queue)
	h := &a.hosts[s]
	h.feats = hs.Feats
	h.feats.Interstitials = nil
	for _, g := range hs.Feats.Interstitials {
		a.addGap(h, g)
	}
	// Peers is counted, not taken on trust: the seal lays each host's
	// destinations out by it.
	h.feats.Peers = 0
	for _, e := range hs.Dests {
		d, fresh := a.dests.upsert(destKey(s, e.Dst))
		if fresh {
			h.feats.Peers++
		}
		d.first, d.last = e.First.UnixNano(), e.Last.UnixNano()
	}
	return s
}

// reset empties the accumulator for the next pane and keeps every
// array it has.
func (a *accumulator) reset() {
	a.hosts = a.hosts[:0]
	a.dests.reset()
	a.gaps.used = 0
}

// seal copies the open pane into a paneShard — the hosts in slot order,
// each one's destinations in address order, with their spans when
// spans is set — and resets the accumulator. Its allocations are the
// shard's exact-size arrays, and the sort scratch when the pane is the
// largest yet.
func (a *accumulator) seal(spans bool) paneShard {
	s := paneShard{feats: make([]HostFeatures, len(a.hosts)), dsts: make([]IP, a.dests.n)}
	if spans {
		s.spans = make([]span, a.dests.n)
	}
	a.copyFeatures(func(i int) *HostFeatures { return &s.feats[i] })
	a.sorted(func(pos int, e *destSlot) {
		s.dsts[pos] = e.dst()
		if spans {
			s.spans[pos] = span{e.first, e.last}
		}
	})
	a.reset()
	return s
}

// copyFeatures copies slot i's features to feat(i), for every slot,
// with the hosts' gaps in one exact-size array that each host's
// Interstitials take its run of, in fold order and with no room to
// grow (nil for a host with no gap).
func (a *accumulator) copyFeatures(feat func(i int) *HostFeatures) {
	total := 0
	for i := range a.hosts {
		total += int(a.hosts[i].nGaps)
	}
	g := make([]float64, total)
	for i := range a.hosts {
		h, f := &a.hosts[i], feat(i)
		*f = h.feats
		if n := int(h.nGaps); n > 0 {
			a.copyGaps(h, g[:n])
			f.Interstitials, g = g[:n:n], g[n:]
		}
	}
}

// sortKey is one table entry in the seal's sort: its destination and
// where the entry sits in the table.
type sortKey struct {
	dst IP
	at  uint32
}

// sorted calls emit for every table entry with the entry's position in
// (slot, destination) order: slot i's entries take the hosts[i].Peers
// positions after slot i−1's, in ascending address order. It is one
// least-significant-digit radix sort of the whole table — a byte of the
// destination a pass, skipping a byte every entry shares — and a last
// counting pass by slot, which reads each entry's span from the table
// slot the key carries. The sort is stable, so no per-host sort and no
// second lookup is needed.
func (a *accumulator) sorted(emit func(pos int, e *destSlot)) {
	n := a.dests.n
	if n == 0 {
		return
	}
	for i := range a.sort {
		if cap(a.sort[i]) < n {
			a.sort[i] = make([]sortKey, n)
		}
		a.sort[i] = a.sort[i][:n]
	}
	src, dst := a.sort[0], a.sort[1]
	var counts [4][256]int32
	k := 0
	for i := range a.dests.slots {
		if e := &a.dests.slots[i]; e.key != 0 {
			d := e.dst()
			src[k] = sortKey{d, uint32(i)}
			k++
			counts[0][byte(d)]++
			counts[1][byte(d>>8)]++
			counts[2][byte(d>>16)]++
			counts[3][byte(d>>24)]++
		}
	}
	for pass := range counts {
		shift := 8 * pass
		c := &counts[pass]
		if c[byte(src[0].dst>>shift)] == int32(n) {
			continue // every entry shares this byte
		}
		var sum int32
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for _, e := range src {
			b := byte(e.dst >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if cap(a.at) < len(a.hosts) {
		a.at = make([]int32, len(a.hosts), cap(a.hosts))
	}
	a.at = a.at[:len(a.hosts)]
	var sum int32
	for i := range a.hosts {
		a.at[i], sum = sum, sum+int32(a.hosts[i].feats.Peers)
	}
	for _, e := range src {
		slot := &a.dests.slots[e.at]
		s := slot.slot()
		emit(int(a.at[s]), slot)
		a.at[s]++
	}
}

// states snapshots the open pane as address-sorted HostStates, each
// host's destinations in address order, without changing it. The
// states' slices are carved from one array of each kind, with no room
// to grow into a neighbour's.
func (a *accumulator) states() []HostState {
	out := make([]HostState, len(a.hosts))
	a.copyFeatures(func(i int) *HostFeatures { return &out[i].Feats })
	dests := make([]DestTimes, a.dests.n)
	at := 0
	for i := range out {
		end := at + out[i].Feats.Peers
		out[i].Dests = dests[at:end:end]
		at = end
	}
	a.sorted(func(pos int, e *destSlot) {
		dests[pos] = DestTimes{Dst: e.dst(), First: time.Unix(0, e.first).UTC(), Last: time.Unix(0, e.last).UTC()}
	})
	slices.SortFunc(out, func(x, y HostState) int { return cmp.Compare(x.Feats.Host, y.Feats.Host) })
	return out
}

// Gap chunks and the pages they come from. A chunk is eight gaps, so a
// host wastes under one chunk, and the link to the host's next chunk
// sits in its page. Sizes are fixed: no knob.
const (
	chunkGaps  = 8
	pageChunks = 64 // 4 KiB of gaps a page
	noChunk    = int32(-1)
)

// gapPage is pageChunks chunks and their links.
type gapPage struct {
	gaps [pageChunks][chunkGaps]float64
	next [pageChunks]int32
}

// gapPool hands out chunks from its pages in order: used counts the
// chunks handed out since the last reset, which hands them all back at
// once. Its pages are never copied or freed, and hold no pointer.
type gapPool struct {
	pages []*gapPage
	used  int32
}

// chunk hands out the next free chunk, adding a page when every page is
// in use.
func (p *gapPool) chunk() int32 {
	c := p.used
	if int(c/pageChunks) == len(p.pages) {
		p.pages = append(p.pages, new(gapPage))
	}
	p.used++
	return c
}

func (p *gapPool) gaps(c int32) *[chunkGaps]float64 { return &p.pages[c/pageChunks].gaps[c%pageChunks] }
func (p *gapPool) next(c int32) *int32              { return &p.pages[c/pageChunks].next[c%pageChunks] }
