// Package flow defines the Argus-style bi-directional flow record model
// that every other component consumes, together with the per-host
// behavioral feature extraction (§IV of the paper): average bytes
// uploaded per flow, failed-connection rate, new-peer ("churn") fraction,
// and per-destination flow interstitial times.
package flow

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order. The reproduction simulates an
// IPv4 campus network (the original CMU dataset is two /16 IPv4 subnets),
// so a fixed-width integer keeps records compact and hashable.
type IP uint32

// MakeIP assembles an address from its four dotted-quad octets.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIP parses a dotted-quad IPv4 string.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("flow: invalid IPv4 %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("flow: invalid IPv4 %q: %w", s, err)
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), nil
}

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Octets returns the address's four dotted-quad bytes.
func (ip IP) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// Subnet is a CIDR prefix used to distinguish internal (monitored) hosts
// from the rest of the Internet.
type Subnet struct {
	Base IP
	Bits int // prefix length, 0..32
}

// ParseSubnet parses "a.b.c.d/len" CIDR notation. The length is one or
// two ASCII digits: no sign or space, so "/-0" cannot slip through as
// a /0 that covers every address.
func ParseSubnet(s string) (Subnet, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Subnet{}, fmt.Errorf("flow: subnet %q missing prefix length", s)
	}
	base, err := ParseIP(s[:slash])
	if err != nil {
		return Subnet{}, err
	}
	digits := s[slash+1:]
	bits, err := strconv.ParseUint(digits, 10, 8)
	if err != nil || len(digits) > 2 || bits > 32 {
		return Subnet{}, fmt.Errorf("flow: invalid prefix length in %q", s)
	}
	sn := Subnet{Base: base, Bits: int(bits)}
	return Subnet{Base: base & sn.mask(), Bits: sn.Bits}, nil
}

// MustParseSubnet is ParseSubnet for known-good literals; it panics on
// malformed input and is intended for package-level configuration.
func MustParseSubnet(s string) Subnet {
	sn, err := ParseSubnet(s)
	if err != nil {
		panic(err)
	}
	return sn
}

func (s Subnet) mask() IP {
	if s.Bits == 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - s.Bits))
}

// Contains reports whether ip is inside the prefix.
func (s Subnet) Contains(ip IP) bool {
	return ip&s.mask() == s.Base&s.mask()
}

// String renders CIDR notation.
func (s Subnet) String() string {
	return fmt.Sprintf("%s/%d", s.Base, s.Bits)
}

// Hosts returns the number of addresses covered by the prefix.
func (s Subnet) Hosts() uint64 {
	return uint64(1) << (32 - s.Bits)
}

// Addr returns the idx-th address inside the subnet.
func (s Subnet) Addr(idx uint32) IP {
	return (s.Base & s.mask()) | IP(idx)&^s.mask()
}
