package flow

import (
	"fmt"
	"slices"
	"time"
)

// Proto identifies the transport protocol of a flow using IANA numbers,
// matching what Argus exports.
type Proto uint8

// Transport protocols appearing in the datasets. The paper restricts the
// CMU dataset to TCP and UDP traffic.
const (
	TCP  Proto = 6
	UDP  Proto = 17
	ICMP Proto = 1
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	case ICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// ParseProto converts a protocol name or number string to a Proto.
func ParseProto(s string) (Proto, error) {
	switch s {
	case "tcp", "TCP", "6":
		return TCP, nil
	case "udp", "UDP", "17":
		return UDP, nil
	case "icmp", "ICMP", "1":
		return ICMP, nil
	}
	return 0, fmt.Errorf("flow: unknown protocol %q", s)
}

// ConnState classifies the outcome of a connection attempt, the basis of
// the failed-connection-rate data-reduction step (§V-A). For TCP a failed
// connection is one whose handshake never completed (reset or unanswered
// SYN); for UDP it is a request that drew no reply packets.
type ConnState uint8

const (
	// StateEstablished marks a successfully established, answered flow.
	StateEstablished ConnState = iota + 1
	// StateFailed marks a connection attempt that was reset, refused, or
	// never answered.
	StateFailed
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateEstablished:
		return "established"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MaxPayload is the number of initial payload bytes Argus retains per
// flow. The paper uses this prefix only to establish ground truth (which
// hosts are Traders); the detection tests never read it.
const MaxPayload = 64

// Record is one bi-directional flow: all packets of a 5-tuple
// conversation summarized in a single record, with the source set to the
// initiating endpoint (Argus convention).
type Record struct {
	// Src is the address of the host that initiated the connection.
	Src IP
	// Dst is the responder address.
	Dst      IP
	SrcPort  uint16
	DstPort  uint16
	Proto    Proto
	Start    time.Time
	End      time.Time
	SrcPkts  uint32 // packets sent by the initiator
	DstPkts  uint32 // packets sent by the responder
	SrcBytes uint64 // bytes uploaded by the initiator
	DstBytes uint64 // bytes sent by the responder
	State    ConnState
	// Payload holds up to MaxPayload initial bytes of the initiator's
	// payload, used only for ground-truth labeling.
	Payload []byte
}

// Failed reports whether the connection attempt failed.
func (r *Record) Failed() bool { return r.State == StateFailed }

// compactRecord is a Record cut down to what observe reads: the start
// as Unix nanoseconds, the bytes uploaded, the destination and the
// outcome. That is 24 bytes and no pointer, so the store's slab of
// pending entries is never scanned by the garbage collector and never
// has to be cleared to let go of anything.
type compactRecord struct {
	start    int64
	srcBytes uint64
	dst      IP
	state    ConnState
}

func compactOf(r *Record) compactRecord {
	return compactRecord{start: r.Start.UnixNano(), srcBytes: r.SrcBytes, dst: r.Dst, state: r.State}
}

// Fingerprint returns a 64-bit content hash of the record under the
// given seed: a pure function of the record's identifying fields (the
// 5-tuple, timestamps, counters, and state — everything except Payload)
// and nothing else. Two equal records fingerprint identically no matter
// which process, stream position, or shard observes them, which is what
// makes hash-based flow sampling seq-stable: any split or merge of a
// stream keeps exactly the same records.
//
// The mix is FNV-1a over the field bytes followed by a SplitMix64
// finalizer, so single-bit field changes avalanche across the output.
func (r *Record) Fingerprint(seed uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(r.Src)<<32 | uint64(r.Dst))
	mix(uint64(r.SrcPort)<<48 | uint64(r.DstPort)<<32 | uint64(r.Proto)<<24 | uint64(r.State)<<16)
	mix(uint64(r.Start.UnixNano()))
	mix(uint64(r.End.UnixNano()))
	mix(r.SrcBytes)
	mix(r.DstBytes)
	mix(uint64(r.SrcPkts)<<32 | uint64(r.DstPkts))
	// SplitMix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Duration returns the flow's wall-clock length.
func (r *Record) Duration() time.Duration { return r.End.Sub(r.Start) }

// Validate checks structural invariants of the record.
func (r *Record) Validate() error {
	if r.End.Before(r.Start) {
		return fmt.Errorf("flow: record ends %v before it starts %v", r.End, r.Start)
	}
	if r.Proto != TCP && r.Proto != UDP && r.Proto != ICMP {
		return fmt.Errorf("flow: unsupported protocol %d", r.Proto)
	}
	if r.State != StateEstablished && r.State != StateFailed {
		return fmt.Errorf("flow: invalid connection state %d", r.State)
	}
	if len(r.Payload) > MaxPayload {
		return fmt.Errorf("flow: payload %d bytes exceeds %d-byte cap", len(r.Payload), MaxPayload)
	}
	return nil
}

func (r *Record) String() string {
	return fmt.Sprintf("%s %s:%d -> %s:%d %s pkts=%d/%d bytes=%d/%d %s",
		r.Proto, r.Src, r.SrcPort, r.Dst, r.DstPort,
		r.Start.Format(time.TimeOnly), r.SrcPkts, r.DstPkts, r.SrcBytes, r.DstBytes, r.State)
}

// SortByStart orders records by start time (stable), the order required
// by the feature extractor and the overlay merger.
func SortByStart(records []Record) {
	slices.SortStableFunc(records, func(a, b Record) int { return a.Start.Compare(b.Start) })
}

// Window is a half-open observation interval [From, To) — the paper's
// detection window D, typically one day of collection.
type Window struct {
	From time.Time
	To   time.Time
}

// String renders the window in interval notation.
func (w Window) String() string {
	return fmt.Sprintf("[%s, %s)", w.From.Format(time.RFC3339), w.To.Format(time.RFC3339))
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.From) && t.Before(w.To)
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.To.Sub(w.From) }

// Filter returns the records whose start time falls inside the window.
func (w Window) Filter(records []Record) []Record {
	out := make([]Record, 0, len(records))
	for _, r := range records {
		if w.Contains(r.Start) {
			out = append(out, r)
		}
	}
	return out
}
