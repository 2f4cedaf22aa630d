package live

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/wire"
)

// A Dispatcher hosts live nodes on a small fixed set of UDP sockets; it
// is the package's only socket deployment. It shards its nodes across
// Sockets sockets (node id mod Sockets). A shard is one socket, one
// sim.Kernel holding the timers of all its nodes, one lock guarding
// their state, and two goroutines: the loop, which drains the socket
// with batched reads (recvmmsg on Linux), runs the kernel's due timers
// and hands every record of a datagram to the node its destination slot
// names; and the writer. Outgoing messages are coalesced per
// destination socket: one datagram carries the records of every sender
// on the shard for every node behind that address, and a cycle's
// datagrams leave in one batched write (sendmmsg). Hosting a thousand
// nodes costs a handful of file descriptors and exactly two goroutines
// per socket, and the per-message syscall cost drops by roughly the
// records per datagram times the batch factor. NewNode is the smallest
// case: one node on a private one-socket dispatcher.

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
	// Misrouted counts records whose destination slot names no node
	// the receiving shard hosts. Honest senders address a node's home
	// shard socket (Node.Addr).
	Misrouted uint64
}

// A shard is one socket of a dispatcher and the nodes whose home it is.
type shard struct {
	d  *Dispatcher
	pc packetConn // nil on a socketless shard (tests)
	tr transport  // where released records go: the ring, on a socket
	// out is the writer's ring.
	out chan out

	// mu is the shard lock. It guards everything below and all the
	// state of every node the shard hosts.
	mu sync.Mutex
	// k is the clock and timer queue of every hosted node; nil until the
	// shard hosts its first node. Kernel time is real time since the
	// dispatcher's epoch.
	k     *sim.Kernel
	nodes map[ident.NodeID]*Node
	// outs and delivs collect what the nodes did under mu: the records
	// they sent and the local deliveries they made. release hands both
	// on after unlocking.
	outs   []out
	delivs []delivery
	// deadline is the kernel time the socket's read deadline is set to
	// (never: none).
	deadline sim.Time
}

func newShard(d *Dispatcher, pc packetConn) *shard {
	return &shard{d: d, pc: pc, nodes: make(map[ident.NodeID]*Node), deadline: never}
}

// Dispatcher hosts nodes on shared shard sockets.
type Dispatcher struct {
	cfg     DispatcherConfig
	batchIO bool
	shards  []*shard

	// fix lets the first hosted node set seed and epoch: the seed of
	// every shard kernel and the time base of every shard clock. Both
	// are written before any shard has a kernel and never again.
	fix   sync.Once
	seed  int64
	epoch time.Time

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
	d := &Dispatcher{cfg: cfg, done: make(chan struct{})}
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
		s := newShard(d, pc)
		s.out = make(chan out, cfg.Ring)
		s.tr = &hostedTransport{sh: s}
		d.shards = append(d.shards, s)
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
// through its home shard's socket and ring; cfg.Bind is ignored. The
// first node fixes the dispatcher's Seed and Epoch; a later node whose
// non-zero Seed or Epoch differs is refused. The returned node is used
// exactly like one from NewNode.
func (d *Dispatcher) AddNode(cfg Config) (*Node, error) {
	n, err := d.host(cfg)
	if err != nil {
		return nil, err
	}
	n.start()
	return n, nil
}

// host builds a node on its home shard: its core on the shard's
// kernel, its driver state, and its entry in the shard's node table.
// No timer of it runs until start.
func (d *Dispatcher) host(cfg Config) (*Node, error) {
	seed, epoch := cfg.Seed, cfg.Epoch
	cfg, gcfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	d.fix.Do(func() {
		d.seed, d.epoch = cfg.Seed, cfg.Epoch
		if d.epoch.IsZero() {
			d.epoch = time.Now()
		}
	})
	if seed != 0 && seed != d.seed {
		return nil, fmt.Errorf("live: node %d has Seed %d, its dispatcher %d", cfg.ID, seed, d.seed)
	}
	if !epoch.IsZero() && !epoch.Equal(d.epoch) {
		return nil, fmt.Errorf("live: node %d has Epoch %v, its dispatcher %v", cfg.ID, epoch, d.epoch)
	}
	cfg.Seed, cfg.Epoch = d.seed, d.epoch

	s := d.shardFor(cfg.ID)
	n := &Node{
		cfg:       cfg,
		sh:        s,
		rng:       rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, 'l', int64(cfg.ID)))),
		neighbors: make(map[ident.NodeID]*neighbor),
		directory: make(map[ident.NodeID]netip.AddrPort),
		ledger:    make(map[ident.NodeID]*peerLedger),
	}
	s.lock()
	defer s.unlock()
	if _, dup := s.nodes[cfg.ID]; dup {
		return nil, fmt.Errorf("live: node %d already hosted", cfg.ID)
	}
	if s.k == nil {
		// The epoch may lie far in the past: bring the clock to the
		// present before anything is scheduled.
		s.k = sim.New(d.seed)
		s.k.Run(time.Since(d.epoch))
	}
	n.k = s.k
	pcfg := pubsub.Config{RecordRoutes: cfg.Algorithm.NeedsRoutes(), OnDeliver: n.onDeliver}
	n.ps = pubsub.NewNode(cfg.ID, n.k, coreNet{n}, nil, pcfg)
	if cfg.Algorithm != core.NoRecovery {
		eng, err := core.NewEngine(n.ps, gcfg)
		if err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		eng.SetServeAdmission(n.admitServeLocked)
		n.eng = eng
	}
	s.nodes[cfg.ID] = n
	return n, nil
}

// Close shuts down every hosted node, then the shard sockets and their
// goroutines.
func (d *Dispatcher) Close() error {
	var err error
	d.closeOnce.Do(func() {
		for _, s := range d.shards {
			s.mu.Lock()
			nodes := make([]*Node, 0, len(s.nodes))
			for _, n := range s.nodes {
				nodes = append(nodes, n)
			}
			s.mu.Unlock()
			for _, n := range nodes {
				n.Close()
			}
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

// route hands each record of one received datagram to the node its
// destination slot names. A record naming no node this shard hosts is
// counted as misrouted and skipped; a truncated record ends the
// datagram, counted as malformed, and the records before it are still
// delivered. Callers hold the shard lock; buf is only valid for the
// duration of the call (wire.Decode copies what it keeps).
func (s *shard) route(buf []byte) {
	for {
		r, rest, err := nextRecord(buf)
		if err != nil {
			s.d.malformed.Add(1)
			return
		}
		if n := s.nodes[r.to]; n != nil {
			n.handleRecordLocked(r)
		} else {
			s.d.misrouted.Add(1)
		}
		if buf = rest; len(buf) == 0 {
			return
		}
	}
}

// readLoop is the shard loop. It drains the socket in batches and, for
// each datagram, takes the shard lock (which runs the kernel up to the
// present), routes the datagram's records and releases the lock, which
// calls OnDeliver and enqueues the sends. The socket's read deadline is
// the kernel's next timer, so a deadline error means "timers are due":
// the loop runs them through the same lock. Receive slots come from one
// long-lived slab sized batch × 64 KB, so the steady state allocates
// nothing; after each batch only the slots the read filled (and
// shortened) are restored to full length.
func (s *shard) readLoop() {
	defer s.d.wg.Done()
	const slot = 64 << 10
	batch := s.d.cfg.Batch
	slab := make([]byte, batch*slot)
	ds := make([]dgram, batch)
	for i := range ds {
		ds[i].b = slab[i*slot : (i+1)*slot : (i+1)*slot]
	}
	var outs []out
	var delivs []delivery
	for {
		n, err := s.pc.readBatch(ds)
		if err != nil {
			if closing(err) {
				return
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.lock()
				outs, delivs = s.release(outs, delivs)
				continue
			}
			select {
			case <-s.d.done:
				return
			default:
				continue
			}
		}
		for i := 0; i < n; i++ {
			s.lock()
			s.route(ds[i].b)
			outs, delivs = s.release(outs, delivs)
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
	entries := make([]out, 0, batch)
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
func (s *shard) pack(entries []out, ds []dgram, bufs []*[]byte, open map[netip.AddrPort]int) ([]dgram, []*[]byte) {
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

// hostedTransport is the transport of a socket shard: sends enqueue on
// the shard's ring (blocking when full — backpressure, not loss) and
// the writer goroutine does the encoding and I/O.
type hostedTransport struct {
	sh *shard
}

// send puts o on the ring. The common case, a ring with room, is a
// plain non-blocking send; only a full ring pays for the select that
// lets shutdown unblock the sender.
func (t *hostedTransport) send(o out) {
	select {
	case t.sh.out <- o:
		return
	default:
	}
	select {
	case t.sh.out <- o:
	case <-t.sh.d.done:
	}
}

func (t *hostedTransport) localAddr() *net.UDPAddr { return t.sh.pc.localAddr() }
