//go:build linux

package ingest

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr: one recvmmsg slot.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte // pad to the kernel's 8-byte struct alignment
}

// mmsgReader drains up to batch datagrams per recvmmsg(2) call against
// the connection's pollable file descriptor. The msghdr/iovec/sockaddr
// arrays are allocated once and rewired to the caller's ring buffers on
// every call, and the RawConn.Read callback is a method value bound once
// at construction whose results land in the reader's fields, so the
// steady-state receive path performs one system call per batch and zero
// allocations per call.
//
// The socket stays in the Go runtime's non-blocking mode: recvmmsg runs
// with MSG_DONTWAIT inside RawConn.Read, whose callback contract parks
// the goroutine on the netpoller when the call would block — batching
// without stealing the fd from the runtime, so deadlines and Close keep
// working.
type mmsgReader struct {
	raw    syscall.RawConn
	intern *Interner
	hdrs   []mmsghdr
	iovs   []syscall.Iovec
	names  [][syscall.SizeofSockaddrInet6]byte
	// recv is r.recvmmsg, bound once; want is the slots it offers the
	// kernel, got and operr what the call returned.
	recv  func(fd uintptr) bool
	want  int
	got   int
	operr error
}

// newMMsgReader prepares a recvmmsg reader, or nil when the connection
// exposes no raw descriptor (the caller falls back to single reads).
func newMMsgReader(conn *net.UDPConn, batch int) *mmsgReader {
	raw, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{
		raw:    raw,
		intern: NewInterner(),
		hdrs:   make([]mmsghdr, batch),
		iovs:   make([]syscall.Iovec, batch),
		names:  make([][syscall.SizeofSockaddrInet6]byte, batch),
	}
	r.recv = r.recvmmsg
	return r
}

// ReadBatch fills up to min(len(bufs), batch) buffers from one recvmmsg
// call, blocking (on the netpoller) until at least one datagram is
// ready.
func (r *mmsgReader) ReadBatch(bufs []*Buf) (int, error) {
	n := min(len(bufs), len(r.hdrs))
	if n == 0 {
		return 0, nil
	}
	for i := 0; i < n; i++ {
		b := bufs[i]
		r.iovs[i] = syscall.Iovec{Base: &b.Data[0]}
		r.iovs[i].SetLen(len(b.Data))
		h := &r.hdrs[i].hdr
		h.Name = &r.names[i][0]
		h.Namelen = uint32(len(r.names[i]))
		h.Iov = &r.iovs[i]
		h.Iovlen = 1 // untyped constant: assignable on every linux arch
		h.Flags = 0
		r.hdrs[i].len = 0
	}
	r.want, r.got, r.operr = n, 0, nil
	if err := r.raw.Read(r.recv); err != nil {
		return 0, err // closed socket or poll failure, as a net error
	}
	if r.operr != nil {
		return 0, r.operr
	}
	got := r.got
	for i := 0; i < got; i++ {
		b := bufs[i]
		b.Data = b.Data[:min(int(r.hdrs[i].len), len(b.Data))]
		b.Truncated = r.hdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0
		b.Exporter = r.intern.Intern(r.sockaddr(i))
	}
	return got, nil
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg(2)
// into the first r.want slots.
func (r *mmsgReader) recvmmsg(fd uintptr) bool {
	rn, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.want),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno != 0 {
		if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK {
			return false // park on the netpoller until readable
		}
		r.operr = errno
		return true
	}
	r.got = int(rn)
	return true
}

// sockaddr decodes slot i's raw source address. Unknown families
// produce the zero AddrPort, which interns as ":0" rather than failing
// — the datagram still carries decodable payload.
func (r *mmsgReader) sockaddr(i int) netip.AddrPort {
	name := &r.names[i]
	switch int(r.hdrs[i].hdr.Namelen) {
	case syscall.SizeofSockaddrInet4:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		if sa.Family == syscall.AF_INET {
			port := uint16(name[2])<<8 | uint16(name[3])
			return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
		}
	case syscall.SizeofSockaddrInet6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		if sa.Family == syscall.AF_INET6 {
			port := uint16(name[2])<<8 | uint16(name[3])
			return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
		}
	}
	return netip.AddrPort{}
}
