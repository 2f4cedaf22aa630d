//go:build linux && (amd64 || arm64)

package live

import (
	"net"
	"net/netip"
	"syscall"
	"time"
	"unsafe"
)

// The Linux batch transport: recvmmsg/sendmmsg move up to a whole
// batch of datagrams per syscall. The raw syscalls are issued through
// net.UDPConn's RawConn, so the socket stays registered with the Go
// netpoller: the read side parks on the poller until the socket is
// readable, then drains non-blocking; the write side retries on EAGAIN
// the same way. This is the same mechanism golang.org/x/net/ipv4 uses,
// inlined here because the repository deliberately has no dependencies
// outside the standard library.
//
// Source addresses are not collected on reads (msg_name is nil): a
// dispatcher identifies peers by the envelope's sender slot, never by
// the packet's origin, so parsing sockaddrs would be pure overhead.

// batchTransportAvailable reports whether newBatchPacketConn can
// return a working mmsg transport on this platform.
const batchTransportAvailable = true

// mmsghdr mirrors struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

type mmsgConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	// Pre-allocated syscall scaffolding, sized to the batch; reused on
	// every call so the steady state allocates nothing. The read side
	// keeps each entry built for the buffer it last pointed at.
	rhdrs []mmsghdr
	riovs []syscall.Iovec
	whdrs []mmsghdr
	wiovs []syscall.Iovec
	// wnames holds one sockaddr slot per write entry; RawSockaddrInet6
	// is large enough for both address families.
	wnames []syscall.RawSockaddrInet6
}

// newBatchPacketConn wraps conn in the mmsg transport, handling up to
// batch datagrams per syscall.
func newBatchPacketConn(conn *net.UDPConn, batch int) (packetConn, bool) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, false
	}
	return &mmsgConn{
		conn:   conn,
		rc:     rc,
		rhdrs:  make([]mmsghdr, batch),
		riovs:  make([]syscall.Iovec, batch),
		whdrs:  make([]mmsghdr, batch),
		wiovs:  make([]syscall.Iovec, batch),
		wnames: make([]syscall.RawSockaddrInet6, batch),
	}, true
}

func (c *mmsgConn) readBatch(ds []dgram) (int, error) {
	k := len(ds)
	if k > len(c.rhdrs) {
		k = len(c.rhdrs)
	}
	// The headers and iovecs persist across calls: the kernel writes
	// only the received length and flags back, so an entry is rebuilt
	// only when the caller hands a different buffer than last time.
	for i := 0; i < k; i++ {
		b := ds[i].b
		if iov := &c.riovs[i]; iov.Base != &b[0] || iov.Len != uint64(len(b)) {
			iov.Base = &b[0]
			iov.SetLen(len(b))
			c.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: iov, Iovlen: 1}}
		}
	}
	var n int
	var operr error
	err := c.rc.Read(func(fd uintptr) bool {
		n, operr = recvmmsg(fd, c.rhdrs[:k])
		return operr != syscall.EAGAIN
	})
	if err != nil {
		return 0, err
	}
	if operr != nil {
		return 0, operr
	}
	for i := 0; i < n; i++ {
		ds[i].b = ds[i].b[:c.rhdrs[i].n]
	}
	return n, nil
}

func (c *mmsgConn) writeBatch(ds []dgram) (int, error) {
	next, sent := 0, 0
	var first error
	for next < len(ds) {
		k := len(ds) - next
		if k > len(c.whdrs) {
			k = len(c.whdrs)
		}
		for i := 0; i < k; i++ {
			d := &ds[next+i]
			c.wiovs[i].Base = &d.b[0]
			c.wiovs[i].SetLen(len(d.b))
			namelen := putSockaddr(&c.wnames[i], d.to)
			c.whdrs[i] = mmsghdr{hdr: syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&c.wnames[i])),
				Namelen: namelen,
				Iov:     &c.wiovs[i],
				Iovlen:  1,
			}}
		}
		var n int
		var operr error
		err := c.rc.Write(func(fd uintptr) bool {
			n, operr = sendmmsg(fd, c.whdrs[:k])
			return operr != syscall.EAGAIN
		})
		if err != nil {
			return sent, err
		}
		if operr != nil {
			// sendmmsg fails only when its first datagram does (a later
			// failure cuts the count short instead): skip that one.
			if first == nil {
				first = operr
			}
			next++
			continue
		}
		if n <= 0 {
			return sent, first
		}
		next += n
		sent += n
	}
	return sent, first
}

// setReadDeadline reaches readBatch through RawConn.Read, which honours
// the socket's read deadline.
func (c *mmsgConn) setReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }
func (c *mmsgConn) localAddr() *net.UDPAddr           { return c.conn.LocalAddr().(*net.UDPAddr) }
func (c *mmsgConn) close() error                      { return c.conn.Close() }

// putSockaddr encodes ap into sa's storage and returns the length to
// pass as msg_namelen. IPv4 and IPv4-mapped addresses use AF_INET (sa
// is large enough for either family).
func putSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	port := ap.Port()
	if a := ap.Addr(); a.Is4() || a.Is4In6() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		sa4.Addr = a.Unmap().As4()
		return syscall.SizeofSockaddrInet4
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	sa.Addr = ap.Addr().As16()
	return syscall.SizeofSockaddrInet6
}

func recvmmsg(fd uintptr, hs []mmsghdr) (int, error) {
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}

func sendmmsg(fd uintptr, hs []mmsghdr) (int, error) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}
