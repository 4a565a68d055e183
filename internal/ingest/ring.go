package ingest

import "time"

// Buf is one reusable datagram buffer cycling through a Ring. Data is
// the receive slab truncated to the datagram's length; Exporter is the
// interned source address of the packet. Reset restores the full
// capacity before the buffer is handed back to the receive loop.
type Buf struct {
	// Data holds the datagram. Receive paths fill Data[:cap(Data)] and
	// re-slice to the received length; consumers must not grow it.
	Data []byte
	// Exporter is the datagram's source address, interned so repeated
	// packets from the same exporter share one string.
	Exporter string
	// Truncated marks a datagram longer than the buffer: the kernel cut
	// it (MSG_TRUNC). Truncated packets never decode cleanly; the flag
	// lets the collector count them as malformed without parsing.
	Truncated bool
	// Arrival is the receive clock, read once per batch by whoever filled
	// the buffer. Decoders never read the wall clock themselves; only
	// protocols that carry no clock of their own (sFlow raw headers)
	// consume it.
	Arrival time.Time
}

// reset restores the buffer to its full receive capacity.
func (b *Buf) reset() {
	b.Data = b.Data[:cap(b.Data)]
	b.Exporter = ""
	b.Truncated = false
	b.Arrival = time.Time{}
}

// Ring is a fixed-size free-list of packet buffers: Get hands out an
// idle buffer, Put returns it. All buffers are allocated up front at a
// fixed capacity, so the receive path's memory footprint is bounded and
// constant — under overload Get fails (an explicit drop signal) instead
// of allocating. Safe for concurrent use: the receive loop Gets while
// decode workers Put.
type Ring struct {
	free   chan *Buf
	bufCap int
}

// NewRing allocates a ring of n buffers of bufCap bytes each.
func NewRing(n, bufCap int) *Ring {
	r := &Ring{free: make(chan *Buf, n), bufCap: bufCap}
	for i := 0; i < n; i++ {
		r.free <- &Buf{Data: make([]byte, bufCap)}
	}
	return r
}

// Size returns the ring's total buffer count.
func (r *Ring) Size() int { return cap(r.free) }

// BufCap returns the per-buffer capacity in bytes.
func (r *Ring) BufCap() int { return r.bufCap }

// Idle returns how many buffers are currently free.
func (r *Ring) Idle() int { return len(r.free) }

// Get returns an idle buffer, or (nil, false) when every buffer is in
// flight — the ring's backpressure signal. Never blocks and never
// allocates.
func (r *Ring) Get() (*Buf, bool) {
	select {
	case b := <-r.free:
		b.reset()
		return b, true
	default:
		return nil, false
	}
}

// Put returns a buffer to the free list. Putting more buffers than the
// ring owns panics — a double-Put is a lifecycle bug, not a condition
// to absorb.
func (r *Ring) Put(b *Buf) {
	select {
	case r.free <- b:
	default:
		panic("ingest: Ring.Put beyond capacity (buffer returned twice?)")
	}
}
