package live

import (
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
// and walks each datagram's records, handing every record to the node
// its destination slot names. Outgoing messages are coalesced per
// destination socket: one datagram carries the records of every sender
// on the shard for every node behind that address, and a cycle's
// datagrams leave in one batched write (sendmmsg). Hosting a thousand
// nodes costs a handful of file descriptors and goroutines, and the
// per-message syscall cost drops by roughly the records per datagram
// times the batch factor. NewNode is the smallest case: one node on a
// private one-socket dispatcher.

// maxDatagram is the coalescing budget: a datagram is closed before
// another record would take it past this size, chosen to clear typical
// MTUs. A record larger than the budget is sent alone.
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

// DispatcherStats reports dispatcher-level counters: datagrams and
// records dropped before any node could own them.
type DispatcherStats struct {
	// Malformed counts datagrams cut short by a truncated record or a
	// length field running past the end; the walk stops there.
	Malformed uint64
	// Misrouted counts records whose destination slot names no hosted
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

// hop is one record of a received datagram, resolved to its node.
type hop struct {
	n *Node
	r record
}

// route hands each record of one received datagram to the node its
// destination slot names, under one read lock for the whole datagram.
// A record naming no hosted node is counted as misrouted and skipped; a
// truncated record ends the datagram, counted as malformed, and the
// records before it are still delivered. Nodes are resolved first and
// handed their records after the lock is released: delivery runs the
// protocol, blocks on full rings and calls OnDeliver. Runs on the shard
// reader goroutine with its scratch hops; buf is only valid for the
// duration of the call (wire.Decode copies what it keeps).
func (d *Dispatcher) route(buf []byte, hops []hop) []hop {
	hops = hops[:0]
	d.mu.RLock()
	for {
		r, rest, err := nextRecord(buf)
		if err != nil {
			d.malformed.Add(1)
			break
		}
		if n := d.nodes[r.to]; n != nil {
			hops = append(hops, hop{n: n, r: r})
		} else {
			d.misrouted.Add(1)
		}
		if buf = rest; len(buf) == 0 {
			break
		}
	}
	d.mu.RUnlock()
	for _, h := range hops {
		h.n.handleRecord(h.r)
	}
	return hops
}

// readLoop drains the shard socket in batches and routes each datagram.
// Receive slots come from one long-lived slab sized batch × 64 KB, so
// the steady state allocates nothing; after each batch only the slots
// the read filled (and shortened) are restored to full length.
func (s *shard) readLoop() {
	defer s.d.wg.Done()
	const slot = 64 << 10
	batch := s.d.cfg.Batch
	slab := make([]byte, batch*slot)
	ds := make([]dgram, batch)
	for i := range ds {
		ds[i].b = slab[i*slot : (i+1)*slot : (i+1)*slot]
	}
	var hops []hop
	for {
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
			hops = s.d.route(ds[i].b, hops)
			ds[i].b = ds[i].b[:slot] // only the filled slots were shortened
		}
	}
}

// writeLoop drains the shard's ring, packs the entries into one
// datagram per destination socket, and flushes them with one batched
// write. The first receive blocks (no busy-waiting on an idle shard);
// the rest of the batch is whatever else the ring already holds.
func (s *shard) writeLoop() {
	defer s.d.wg.Done()
	batch := s.d.cfg.Batch
	entries := make([]outEntry, 0, batch)
	ds := make([]dgram, 0, batch)
	bufs := make([]*[]byte, 0, batch)
	// open grows to the distinct addresses one cycle reaches, not to
	// the batch: clear costs the map's capacity, every cycle.
	open := make(map[netip.AddrPort]int)
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
			// Best-effort, like UDP: the protocols tolerate loss, and
			// writeBatch already skips a datagram the kernel refuses.
			_, _ = s.pc.writeBatch(ds)
		}
		for i, bp := range bufs {
			*bp = ds[i].b
			putSendBuf(bp)
		}
	}
}

// pack encodes entries as records, keeping one open datagram per
// destination address: records for every node behind that socket share
// it while it stays within the maxDatagram budget, and a record that
// would overflow it starts the address's next datagram. A record larger
// than the budget therefore travels alone, and records from one sender
// to one node keep their ring order. A message too large to frame is
// dropped here, like any datagram UDP would refuse. ds and bufs stay
// index-aligned: one pooled buffer per datagram.
func (s *shard) pack(entries []outEntry, ds []dgram, bufs []*[]byte, open map[netip.AddrPort]int) ([]dgram, []*[]byte) {
	clear(open)
	for _, e := range entries {
		size := recordHeader
		if e.msg != nil {
			sz := e.msg.WireSize()
			if sz > wire.MaxFrame {
				continue
			}
			size += sz
		}
		if i, ok := open[e.addr]; ok && len(ds[i].b)+size <= maxDatagram {
			ds[i].b = appendRecord(ds[i].b, e.from, e.to, e.msg, e.oob)
			continue
		}
		bp := sendBufPool.Get().(*[]byte)
		ds = append(ds, dgram{b: appendRecord((*bp)[:0], e.from, e.to, e.msg, e.oob), to: e.addr})
		bufs = append(bufs, bp)
		open[e.addr] = len(ds) - 1
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
	t.enqueue(outEntry{from: from, to: to, addr: addr, msg: msg, oob: oob})
}

func (t *hostedTransport) sendHeartbeat(from, to ident.NodeID, addr netip.AddrPort) {
	t.enqueue(outEntry{from: from, to: to, addr: addr})
}

// enqueue puts e on the ring. The common case, a ring with room, is a
// plain non-blocking send; only a full ring pays for the select that
// lets shutdown unblock the sender.
func (t *hostedTransport) enqueue(e outEntry) {
	select {
	case t.sh.out <- e:
		return
	default:
	}
	select {
	case t.sh.out <- e:
	case <-t.sh.d.done:
	}
}

func (t *hostedTransport) localAddr() *net.UDPAddr { return t.sh.pc.localAddr() }
