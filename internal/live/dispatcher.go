package live

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/wire"
)

// A Dispatcher hosts live nodes on a small fixed set of UDP sockets; it
// is the package's only socket deployment. It shards its nodes across
// Sockets sockets, drains each with batched reads (recvmmsg on Linux),
// routes each datagram to its node by the envelope's destination slot,
// and coalesces outgoing messages per (sender, destination) into batch
// envelopes flushed with batched writes (sendmmsg). Hosting a thousand
// nodes costs a handful of file descriptors and goroutines, and the
// per-message syscall cost drops by roughly the batch factor. NewNode
// is the smallest case: one node on a private one-socket dispatcher.

// maxDatagram is the coalescing budget: a batch envelope is flushed
// before it would exceed this size, chosen to clear typical MTUs.
// Single messages larger than the budget are sent alone, in a plain
// envelope.
const maxDatagram = 1400

// DispatcherConfig parameterizes a Dispatcher.
type DispatcherConfig struct {
	// Bind is the UDP address every shard socket listens on (port 0
	// recommended: each shard gets its own ephemeral port). Empty means
	// 127.0.0.1:0.
	Bind string
	// Sockets is the number of shard sockets (and reader/writer goroutine
	// pairs). Zero means 4.
	Sockets int
	// Batch is the number of datagrams moved per batched read or write.
	// Zero means 32.
	Batch int
	// Ring is the capacity of each shard's outgoing ring. A full ring
	// applies backpressure: senders block until the writer drains.
	// Zero means 4096.
	Ring int

	// disableBatchIO forces the portable stdlib transport even where
	// recvmmsg/sendmmsg are available, so the tests cover both paths on
	// Linux.
	disableBatchIO bool
}

func (c DispatcherConfig) withDefaults() DispatcherConfig {
	if c.Bind == "" {
		c.Bind = "127.0.0.1:0"
	}
	if c.Sockets == 0 {
		c.Sockets = 4
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Ring == 0 {
		c.Ring = 4096
	}
	return c
}

// DispatcherStats reports dispatcher-level counters: datagrams dropped
// before any node could own them.
type DispatcherStats struct {
	// Malformed counts datagrams too short to carry an envelope.
	Malformed uint64
	// Misrouted counts datagrams whose destination slot names no hosted
	// node.
	Misrouted uint64
}

// outEntry is one message queued on a shard's outgoing ring. A nil msg
// is a heartbeat.
type outEntry struct {
	from, to ident.NodeID
	addr     netip.AddrPort
	msg      wire.Message
	oob      bool
}

type shard struct {
	d   *Dispatcher
	pc  packetConn
	out chan outEntry
}

// Dispatcher hosts nodes on shared shard sockets.
type Dispatcher struct {
	cfg     DispatcherConfig
	batchIO bool
	shards  []*shard

	mu    sync.RWMutex
	nodes map[ident.NodeID]*Node

	malformed atomic.Uint64
	misrouted atomic.Uint64

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewDispatcher opens the shard sockets and starts their reader and
// writer goroutines.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	cfg = cfg.withDefaults()
	addr, err := net.ResolveUDPAddr("udp", cfg.Bind)
	if err != nil {
		return nil, fmt.Errorf("live: resolving %q: %w", cfg.Bind, err)
	}
	d := &Dispatcher{
		cfg:   cfg,
		nodes: make(map[ident.NodeID]*Node),
		done:  make(chan struct{}),
	}
	d.batchIO = batchTransportAvailable && !cfg.disableBatchIO
	for i := 0; i < cfg.Sockets; i++ {
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			for _, s := range d.shards {
				s.pc.close()
			}
			return nil, fmt.Errorf("live: listening on %q: %w", cfg.Bind, err)
		}
		// A shard socket carries the traffic of hundreds of nodes, so the
		// default kernel buffers (~200 KB) overflow on fan-in bursts that
		// per-node sockets would have absorbed across their thousand
		// buffers. Ask for the most the kernel allows; best-effort.
		_ = conn.SetReadBuffer(8 << 20)
		_ = conn.SetWriteBuffer(8 << 20)
		var pc packetConn
		if d.batchIO {
			pc, _ = newBatchPacketConn(conn, cfg.Batch)
		}
		if pc == nil {
			d.batchIO = false
			pc = &stdConn{conn: conn}
		}
		d.shards = append(d.shards, &shard{d: d, pc: pc, out: make(chan outEntry, cfg.Ring)})
	}
	for _, s := range d.shards {
		d.wg.Add(2)
		go s.readLoop()
		go s.writeLoop()
	}
	return d, nil
}

// BatchIO reports whether the mmsg batch transport is active: false on
// platforms without it, or when a shard socket could not be wrapped.
func (d *Dispatcher) BatchIO() bool { return d.batchIO }

// Stats returns the dispatcher-level counters.
func (d *Dispatcher) Stats() DispatcherStats {
	return DispatcherStats{
		Malformed: d.malformed.Load(),
		Misrouted: d.misrouted.Load(),
	}
}

// shardFor maps a node to its home shard.
func (d *Dispatcher) shardFor(id ident.NodeID) *shard {
	return d.shards[int(uint32(id))%len(d.shards)]
}

// AddNode creates a node hosted on this dispatcher. The node speaks
// through its shard's socket and ring; cfg.Bind is ignored. The
// returned node is used exactly like one from NewNode.
func (d *Dispatcher) AddNode(cfg Config) (*Node, error) {
	cfg, gcfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sh := d.shardFor(cfg.ID)
	n, err := newNodeState(cfg, gcfg, &hostedTransport{sh: sh}, d)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if _, dup := d.nodes[cfg.ID]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("live: node %d already hosted", cfg.ID)
	}
	d.nodes[cfg.ID] = n
	d.mu.Unlock()
	n.startLoops()
	return n, nil
}

func (d *Dispatcher) removeNode(id ident.NodeID) {
	d.mu.Lock()
	delete(d.nodes, id)
	d.mu.Unlock()
}

// Close shuts down every hosted node, then the shard sockets and their
// goroutines.
func (d *Dispatcher) Close() error {
	var err error
	d.closeOnce.Do(func() {
		d.mu.RLock()
		nodes := make([]*Node, 0, len(d.nodes))
		for _, n := range d.nodes {
			nodes = append(nodes, n)
		}
		d.mu.RUnlock()
		for _, n := range nodes {
			n.Close()
		}
		close(d.done)
		for _, s := range d.shards {
			if e := s.pc.close(); e != nil && err == nil && !closing(e) {
				err = e
			}
		}
		d.wg.Wait()
	})
	return err
}

// route hands one received datagram to the node its destination slot
// names. Runs on the shard reader goroutine; the buffer is only valid
// for the duration of the call (wire.Decode copies what it keeps).
func (d *Dispatcher) route(buf []byte) {
	if len(buf) < envelopeLen {
		d.malformed.Add(1)
		return
	}
	dest := ident.NodeID(binary.LittleEndian.Uint32(buf[4:]))
	d.mu.RLock()
	n := d.nodes[dest]
	d.mu.RUnlock()
	if n == nil {
		d.misrouted.Add(1)
		return
	}
	n.handleDatagram(buf)
}

// readLoop drains the shard socket in batches and routes each datagram.
// Receive slots come from one long-lived slab sized batch × 64 KB, so
// the steady state allocates nothing.
func (s *shard) readLoop() {
	defer s.d.wg.Done()
	const slot = 64 << 10
	batch := s.d.cfg.Batch
	slab := make([]byte, batch*slot)
	ds := make([]dgram, batch)
	for {
		for i := range ds {
			ds[i].b = slab[i*slot : (i+1)*slot]
		}
		n, err := s.pc.readBatch(ds)
		if err != nil {
			if closing(err) {
				return
			}
			select {
			case <-s.d.done:
				return
			default:
				continue
			}
		}
		for i := 0; i < n; i++ {
			s.d.route(ds[i].b)
		}
	}
}

// writeLoop drains the shard's ring, coalesces entries into batch
// envelopes, and flushes them with one batched write. The first receive
// blocks (no busy-waiting on an idle shard); the rest of the batch is
// whatever else the ring already holds.
func (s *shard) writeLoop() {
	defer s.d.wg.Done()
	batch := s.d.cfg.Batch
	entries := make([]outEntry, 0, batch)
	ds := make([]dgram, 0, batch)
	bufs := make([]*[]byte, 0, batch)
	open := make(map[packKey]int, batch)
	for {
		entries = entries[:0]
		select {
		case e := <-s.out:
			entries = append(entries, e)
		case <-s.d.done:
			return
		}
	drain:
		for len(entries) < batch {
			select {
			case e := <-s.out:
				entries = append(entries, e)
			default:
				break drain
			}
		}
		ds, bufs = s.pack(entries, ds[:0], bufs[:0], open)
		if len(ds) > 0 {
			if _, err := s.pc.writeBatch(ds); err != nil && !closing(err) {
				// Best-effort, like UDP: the protocols tolerate loss.
				_ = err
			}
		}
		for i, bp := range bufs {
			*bp = ds[i].b
			putSendBuf(bp)
		}
	}
}

// packKey groups coalescible entries: frames share a datagram only when
// sender, destination, and OOB flag all match, because the envelope
// carries one of each.
type packKey struct {
	from, to ident.NodeID
	oob      bool
}

// pack encodes entries into datagrams, coalescing messages with the
// same key into batch envelopes up to the maxDatagram budget.
// Heartbeats and oversized messages are emitted alone, in plain
// envelopes. ds and bufs stay index-aligned: one pooled buffer per
// datagram.
func (s *shard) pack(entries []outEntry, ds []dgram, bufs []*[]byte, open map[packKey]int) ([]dgram, []*[]byte) {
	clear(open)
	for _, e := range entries {
		if e.msg == nil { // heartbeat: payload-free, never coalesced
			bp := sendBufPool.Get().(*[]byte)
			b := appendEnvelope((*bp)[:0], e.from, e.to, flagHeartbeat)
			ds = append(ds, dgram{b: b, to: e.addr})
			bufs = append(bufs, bp)
			continue
		}
		var flags byte
		if e.oob {
			flags = flagOOB
		}
		sz := e.msg.WireSize()
		if sz > wire.MaxFrame || envelopeLen+wire.FrameOverhead+sz > maxDatagram {
			// Too big to frame or to share: a plain envelope of its own.
			bp := sendBufPool.Get().(*[]byte)
			b := appendEnvelope((*bp)[:0], e.from, e.to, flags)
			b = e.msg.Append(b)
			ds = append(ds, dgram{b: b, to: e.addr})
			bufs = append(bufs, bp)
			continue
		}
		k := packKey{from: e.from, to: e.to, oob: e.oob}
		if i, ok := open[k]; ok {
			if len(ds[i].b)+wire.FrameOverhead+sz <= maxDatagram {
				ds[i].b = wire.AppendFrame(ds[i].b, e.msg)
				continue
			}
			delete(open, k) // budget exhausted; start a fresh datagram
		}
		bp := sendBufPool.Get().(*[]byte)
		b := appendEnvelope((*bp)[:0], e.from, e.to, flags|flagBatch)
		b = wire.AppendFrame(b, e.msg)
		ds = append(ds, dgram{b: b, to: e.addr})
		bufs = append(bufs, bp)
		open[k] = len(ds) - 1
	}
	return ds, bufs
}

// hostedTransport is the transport of a dispatcher-hosted node: sends
// enqueue on the home shard's ring (blocking when full — backpressure,
// not loss) and the writer goroutine does the encoding and I/O.
type hostedTransport struct {
	sh *shard
}

func (t *hostedTransport) sendMsg(from, to ident.NodeID, addr netip.AddrPort, msg wire.Message, oob bool) {
	select {
	case t.sh.out <- outEntry{from: from, to: to, addr: addr, msg: msg, oob: oob}:
	case <-t.sh.d.done:
	}
}

func (t *hostedTransport) sendHeartbeat(from, to ident.NodeID, addr netip.AddrPort) {
	select {
	case t.sh.out <- outEntry{from: from, to: to, addr: addr}:
	case <-t.sh.d.done:
	}
}

func (t *hostedTransport) localAddr() *net.UDPAddr { return t.sh.pc.localAddr() }
