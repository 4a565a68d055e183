// Package kademlia implements the Kademlia distributed hash table
// (Maymounkov & Mazières, 2002) that underlies the Overnet network — the
// substrate the Storm botnet built its command-and-control on, and whose
// implementation is shared by the eDonkey (KAD) and BitTorrent (Mainline
// DHT) file-sharing networks. The package provides node identifiers with
// the XOR metric, k-bucket routing tables, a churning overlay population,
// and iterative lookups; the traffic generators turn lookup attempts into
// flow records.
package kademlia

import (
	"crypto/md5"
	"encoding/hex"
	"math/bits"
	"math/rand"
)

// IDBytes is the size of a node identifier. Overnet/eDonkey use 128-bit
// (MD4-space) identifiers.
const IDBytes = 16

// IDBits is the identifier length in bits, and the number of k-buckets in
// a routing table.
const IDBits = IDBytes * 8

// NodeID is a 128-bit Kademlia node or key identifier.
type NodeID [IDBytes]byte

// RandomID draws a uniformly random identifier.
func RandomID(rng *rand.Rand) NodeID {
	var id NodeID
	for i := 0; i < IDBytes; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			id[i+j] = byte(v >> (8 * j))
		}
	}
	return id
}

// KeyID derives a deterministic identifier from arbitrary content (e.g. a
// search keyword or file hash), mirroring how DHT keys are content
// digests.
func KeyID(content string) NodeID {
	return NodeID(md5.Sum([]byte(content)))
}

// XOR returns the Kademlia distance id ⊕ other.
func (id NodeID) XOR(other NodeID) NodeID {
	var d NodeID
	for i := range d {
		d[i] = id[i] ^ other[i]
	}
	return d
}

// Cmp compares identifiers as big-endian 128-bit integers: -1, 0, or +1.
func (id NodeID) Cmp(other NodeID) int {
	for i := range id {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether id < other as big-endian integers. Comparing XOR
// distances with Less is the Kademlia closeness order.
func (id NodeID) Less(other NodeID) bool { return id.Cmp(other) < 0 }

// CommonPrefixLen returns the number of leading bits id and other share —
// equivalently, the index of the k-bucket other falls into from id's
// perspective (IDBits when equal).
func (id NodeID) CommonPrefixLen(other NodeID) int {
	for i := range id {
		if x := id[i] ^ other[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return IDBits
}

// String renders the identifier as hex.
func (id NodeID) String() string { return hex.EncodeToString(id[:]) }
