package dist

import (
	"bytes"
	"testing"
)

// Both decoders face a TCP socket. Arbitrary bytes must never panic
// them, whatever they accept must re-encode to exactly the input, and
// a length field cannot buy memory the sender did not pay for in bytes:
// every slice is sized by wire's Count, and the smallest element (a
// contact) is four encoded bytes, so a decoded summary never holds more
// slice elements than its input has bytes.
func FuzzDecodeSummary(f *testing.F) {
	valid := EncodeSummary(7, testSummary())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{SummaryVersion, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		index, s, err := DecodeSummary(data)
		if err != nil {
			return
		}
		if again := EncodeSummary(index, s); !bytes.Equal(again, data) {
			t.Fatalf("decoded summary re-encodes to %d different bytes (input %d)", len(again), len(data))
		}
		elems := len(s.Hosts)
		for i := range s.Hosts {
			h := &s.Hosts[i]
			elems += len(h.SketchPositions) + len(h.SketchWeights) + len(h.Contacts)
		}
		if elems > len(data) {
			t.Fatalf("%d input bytes decoded into %d slice elements", len(data), elems)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	valid := encodeHello(hello{Version: WireVersion, Shard: 3, FP: FingerprintOf(testEngineConfig(), 4)})
	f.Add(valid)
	f.Add(valid[:9])
	f.Add([]byte{9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if again := encodeHello(h); !bytes.Equal(again, data) {
			t.Fatalf("decoded hello re-encodes to different bytes:\nin  %x\nout %x", data, again)
		}
	})
}
