//go:build linux

package ingest

import (
	"bytes"
	"testing"
	"time"
)

func TestNewBatchReaderSelectsRecvmmsg(t *testing.T) {
	recv, _ := newLoopbackPair(t)
	if _, ok := NewBatchReader(recv, 8).(*mmsgReader); !ok {
		t.Fatal("batch > 1 on linux did not select the recvmmsg reader")
	}
	if _, ok := NewBatchReader(recv, 1).(*singleReader); !ok {
		t.Fatal("batch = 1 did not select the portable reader")
	}
}

// TestMMsgReaderTruncation checks the kernel's MSG_TRUNC signal reaches
// Buf.Truncated: a datagram longer than the ring buffer is cut and
// flagged, and a following well-sized datagram is clean.
func TestMMsgReaderTruncation(t *testing.T) {
	recv, send := newLoopbackPair(t)
	br := newMMsgReader(recv, 4)
	if br == nil {
		t.Fatal("newMMsgReader returned nil for a UDP socket")
	}
	ring := NewRing(4, 32)

	big := bytes.Repeat([]byte{0xCC}, 100) // exceeds the 32-byte buffers
	small := []byte("fits-fine")
	for _, p := range [][]byte{big, small} {
		if _, err := send.Write(p); err != nil {
			t.Fatalf("send: %v", err)
		}
	}

	var got []*Buf
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 2 && time.Now().Before(deadline) {
		bufs := make([]*Buf, 0, 4)
		for {
			b, ok := ring.Get()
			if !ok {
				break
			}
			bufs = append(bufs, b)
		}
		n, err := br.ReadBatch(bufs)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		got = append(got, bufs[:n]...)
		for _, b := range bufs[n:] {
			ring.Put(b)
		}
	}
	if len(got) != 2 {
		t.Fatalf("received %d datagrams, want 2", len(got))
	}
	if !got[0].Truncated {
		t.Error("oversized datagram not flagged truncated")
	}
	if len(got[0].Data) != 32 {
		t.Errorf("truncated datagram length %d, want buffer cap 32", len(got[0].Data))
	}
	if got[1].Truncated {
		t.Error("well-sized datagram flagged truncated")
	}
	if !bytes.Equal(got[1].Data, small) {
		t.Errorf("second datagram = %q, want %q", got[1].Data, small)
	}
	if got[0].Exporter != send.LocalAddr().String() {
		t.Errorf("exporter %q, want %q", got[0].Exporter, send.LocalAddr().String())
	}
}

// One ReadBatch allocates nothing once the exporter is interned: the
// recvmmsg callback is bound at construction and its results live in
// the reader, so a call's cost is the system call alone.
func TestMMsgReaderZeroAllocs(t *testing.T) {
	const runs = 50
	recv, send := newLoopbackPair(t)
	br := newMMsgReader(recv, 4)
	if br == nil {
		t.Fatal("newMMsgReader returned nil for a UDP socket")
	}
	// Every run, and AllocsPerRun's warm-up, reads one datagram that is
	// already queued, so none blocks.
	for i := 0; i <= runs; i++ {
		if _, err := send.Write([]byte("datagram")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	bufs := []*Buf{{Data: make([]byte, 64)}}
	read := 0
	allocs := testing.AllocsPerRun(runs, func() {
		bufs[0].reset()
		if n, err := br.ReadBatch(bufs); err == nil {
			read += n
		}
	})
	if read != runs+1 {
		t.Fatalf("read %d datagrams, want %d", read, runs+1)
	}
	if allocs != 0 {
		t.Errorf("ReadBatch made %v allocations a call, want 0", allocs)
	}
}
