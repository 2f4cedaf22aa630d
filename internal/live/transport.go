package live

import (
	"net"
	"net/netip"
	"sync"

	"repro/internal/ident"
	"repro/internal/wire"
)

// The live transport has two layers. packetConn is the socket layer:
// read and write *batches* of datagrams in one call, so a dispatcher
// hosting thousands of nodes pays one syscall per batch instead of one
// per packet. On Linux it is backed by recvmmsg/sendmmsg (mmsg_linux.go);
// everywhere else by a portable stdlib fallback that degrades to one
// datagram per call. transport is the node layer: how one live.Node
// emits messages. Its one socket implementation is hostedTransport
// (dispatcher.go), which enqueues on the node's dispatcher shard ring.

// dgram is one datagram of a batch I/O operation. Reads fill b
// (re-sliced to the payload length); writes consume b and send to `to`.
type dgram struct {
	b  []byte
	to netip.AddrPort
}

// packetConn reads and writes datagrams in batches on one socket.
type packetConn interface {
	// readBatch blocks until at least one datagram arrives and fills up
	// to len(ds) entries, re-slicing each entry's b to the payload; it
	// returns the number filled.
	readBatch(ds []dgram) (int, error)
	// writeBatch transmits ds in order, returning how many were sent
	// and the first error. A datagram the kernel refuses (too large,
	// say) is skipped and the rest are still sent; only a closed socket
	// ends the batch early.
	writeBatch(ds []dgram) (int, error)
	localAddr() *net.UDPAddr
	close() error
}

// stdConn is the portable packetConn: plain blocking stdlib reads and
// writes, one datagram at a time under the batch interface. It is the
// fallback on platforms without an mmsg path and the reference
// implementation the batch path is differential-tested against.
type stdConn struct {
	conn *net.UDPConn
}

func (c *stdConn) readBatch(ds []dgram) (int, error) {
	n, _, err := c.conn.ReadFromUDPAddrPort(ds[0].b)
	if err != nil {
		return 0, err
	}
	ds[0].b = ds[0].b[:n]
	return 1, nil
}

func (c *stdConn) writeBatch(ds []dgram) (int, error) {
	sent := 0
	var first error
	for i := range ds {
		if _, err := c.conn.WriteToUDPAddrPort(ds[i].b, ds[i].to); err != nil {
			if closing(err) {
				return sent, err
			}
			if first == nil {
				first = err
			}
			continue
		}
		sent++
	}
	return sent, first
}

func (c *stdConn) localAddr() *net.UDPAddr { return c.conn.LocalAddr().(*net.UDPAddr) }
func (c *stdConn) close() error            { return c.conn.Close() }

// transport is how a node transmits. On sockets that is
// hostedTransport: sends enqueue on the dispatcher shard's ring, where
// the writer packs them as records into one datagram per destination
// socket. Tests record a
// node's sends through their own implementation.
type transport interface {
	// sendMsg transmits msg from one node to another as one record
	// (possibly coalesced and deferred, per implementation).
	sendMsg(from, to ident.NodeID, addr netip.AddrPort, msg wire.Message, oob bool)
	// sendHeartbeat transmits an empty liveness record.
	sendHeartbeat(from, to ident.NodeID, addr netip.AddrPort)
	// localAddr is the address peers use to reach this node.
	localAddr() *net.UDPAddr
}

// sendBufPool recycles datagram encode buffers (sized for a coalesced
// datagram of records). Buffers grown past 64 KB by an
// oversized retransmit batch are dropped rather than pinned.
var sendBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

func putSendBuf(bp *[]byte) {
	if cap(*bp) <= 64<<10 {
		sendBufPool.Put(bp)
	}
}
