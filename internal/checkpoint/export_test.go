package checkpoint

import (
	"encoding/binary"

	"plotters/internal/wire"
)

// SplitPending cuts an encoded snapshot of either version into the part
// a change of the store's pending layout must leave alone and the part
// it changes. kept is every section's id and payload, with each shard's
// pending section cut out of the engine state: its pending list and, in
// version 1, the arrival counter that numbered it. pending holds the
// lists' bytes (count, then elements), one per shard.
func SplitPending(data []byte) (version uint16, kept []byte, pending [][]byte, err error) {
	d := wire.NewDecoder(data)
	d.Take(len(snapshotMagic))
	version = d.U16()
	for d.Err() == nil && d.Remaining() > 0 {
		id := d.U16()
		payload := d.Take(int(d.U32()))
		d.U32() // CRC
		kept = binary.LittleEndian.AppendUint16(kept, id)
		if id != secEngine {
			kept = append(kept, payload...)
			continue
		}
		p := wire.NewDecoder(payload)
		from := 0
		at := func() int { return len(payload) - p.Remaining() }
		keep := func() { kept, from = append(kept, payload[from:at()]...), at() }
		p.Bool()
		p.Time()
		p.Time()
		p.I64()
		p.I64()
		p.I64()
		shards := int(p.U32())
		for i := 0; i < shards && p.Err() == nil; i++ {
			p.Time()
			p.Time()
			p.Time()
			p.I64()
			keep()
			if version == 1 {
				p.U64()
				from = at()
			}
			decodeHostList(p)
			decodeHostTimes(p)
			keep()
			if version == 1 {
				decodePendingV1(p)
			} else {
				decodePending(p)
			}
			pending, from = append(pending, payload[from:at()]), at()
		}
		kept = append(kept, payload[from:]...)
		if p.Err() != nil {
			return version, kept, pending, p.Err()
		}
	}
	return version, kept, pending, d.Err()
}
