// Package live runs the paper's protocols for real: dispatchers are
// processes communicating over UDP sockets (stdlib net only), not
// simulated components on a virtual clock. It reuses the simulator's
// building blocks — the wire codec, the content model, the β-bounded
// event buffer, the Lost buffer — and re-implements subscription
// forwarding, reverse-path event routing, and the epidemic recovery
// algorithms against real time and real I/O.
//
// The package exists for two reasons: it demonstrates that the
// simulated protocols are implementable as-is (the simulator and the
// live node speak the same wire format), and it gives downstream users
// a deployable starting point rather than only a simulation.
//
// Nodes come in two deployments. NewNode binds one socket per node and
// reads it from a dedicated goroutine — simple, and fine up to a few
// hundred dispatchers per process. NewDispatcher hosts thousands of
// nodes on a small fixed set of sockets with batched I/O and coalesced
// sends; see dispatcher.go.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes one live dispatcher.
type Config struct {
	// ID identifies this dispatcher; must be unique in the network.
	ID ident.NodeID
	// Bind is the UDP address to listen on; empty means 127.0.0.1:0.
	// Ignored for dispatcher-hosted nodes, which share shard sockets.
	Bind string
	// Algorithm selects the recovery variant (NoRecovery disables
	// gossip entirely).
	Algorithm core.Algorithm
	// GossipInterval is T. Zero means 30 ms.
	GossipInterval time.Duration
	// BufferSize is β. Zero means 1500.
	BufferSize int
	// PForward and PSource are the gossip probabilities. Zero means
	// 0.9 and 0.5.
	PForward, PSource float64
	// LostCapacity and LostTTL bound the Lost buffer. Zero means 4096
	// entries and 10 s.
	LostCapacity int
	LostTTL      time.Duration
	// DropProb injects Bernoulli loss on outgoing tree-link sends —
	// the lossy-links scenario over real sockets. OOB traffic is not
	// dropped.
	DropProb float64
	// HeartbeatInterval enables the per-neighbor failure detector:
	// every interval the node heartbeats its tree neighbors and
	// suspects any neighbor not heard from within HeartbeatTimeout.
	// Suspected neighbors are skipped when picking gossip targets (the
	// tree keeps routing events — healing the tree is the operator's
	// job) and revived by any incoming traffic. Zero disables the
	// detector.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence after which a neighbor is
	// suspected. Zero means 4×HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// RequestRetries caps how many times an unanswered recovery
	// Request is transmitted in total before the entry is abandoned.
	// Zero means 4.
	RequestRetries int
	// RequestBackoff is the base retransmission delay for unanswered
	// Requests; it doubles per attempt with ±25% jitter. Zero means
	// 2×GossipInterval.
	RequestBackoff time.Duration
	// MaxPending bounds the outstanding-request table; when full, the
	// greediest peer's oldest entries are shed first (see ledger.go).
	// Zero means 4096.
	MaxPending int
	// ServeBudget caps the bytes of recovery traffic (Retransmit
	// payloads) served to any single peer per LedgerWindow; requests
	// beyond the budget are trimmed and counted in Stats.QuotaTrimmed.
	// Zero disables the quota.
	ServeBudget int
	// LedgerWindow is the quota refill period. Zero means
	// 10×GossipInterval.
	LedgerWindow time.Duration
	// Seed drives the node's randomized choices. Zero means 1.
	Seed int64
	// Epoch, when non-zero, anchors the node's monotonic clock — the
	// time base of PublishedAt stamps and the Lost buffer. Nodes
	// sharing an epoch stamp directly comparable PublishedAt values,
	// which benchmark/live.go uses to measure delivery latency against
	// one clock. Zero means time.Now() at node start.
	Epoch time.Time
	// OnDeliver, when non-nil, observes every local delivery. It is
	// called outside the node's lock, from the node's goroutines.
	OnDeliver func(ev *wire.Event, recovered bool)
}

func (c Config) withDefaults() Config {
	if c.Bind == "" {
		c.Bind = "127.0.0.1:0"
	}
	if c.Algorithm == 0 {
		c.Algorithm = core.NoRecovery
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 30 * time.Millisecond
	}
	if c.BufferSize == 0 {
		c.BufferSize = 1500
	}
	if c.PForward == 0 {
		c.PForward = 0.9
	}
	if c.PSource == 0 {
		c.PSource = 0.5
	}
	if c.LostCapacity == 0 {
		c.LostCapacity = 4096
	}
	if c.LostTTL == 0 {
		c.LostTTL = 10 * time.Second
	}
	if c.HeartbeatInterval > 0 && c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.RequestRetries == 0 {
		c.RequestRetries = 4
	}
	if c.RequestBackoff == 0 {
		c.RequestBackoff = 2 * c.GossipInterval
	}
	if c.MaxPending == 0 {
		c.MaxPending = 4096
	}
	if c.LedgerWindow == 0 {
		c.LedgerWindow = 10 * c.GossipInterval
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stats is a snapshot of a live node's counters.
type Stats struct {
	Published      uint64
	Delivered      uint64
	Recovered      uint64
	LossesDetected uint64
	GossipSent     uint64
	EventsSent     uint64
	Served         uint64
	DroppedInject  uint64
	// Malformed counts datagrams dropped because they were too short
	// or failed to decode — counted, never fatal. Misrouted counts
	// well-formed datagrams whose destination slot names another node.
	Malformed uint64
	Misrouted uint64
	// HeartbeatsSent, NeighborsSuspected, and NeighborsRevived report
	// the failure detector (zero when HeartbeatInterval is 0).
	HeartbeatsSent     uint64
	NeighborsSuspected uint64
	NeighborsRevived   uint64
	// RequestsRetried and RequestsAbandoned report the recovery
	// Request retransmission machinery; PendingShed counts entries
	// evicted greediest-peer-first when the pending table hit
	// MaxPending; QuotaTrimmed counts events withheld from
	// retransmissions because the requesting peer exhausted its
	// ServeBudget for the ledger window.
	RequestsRetried   uint64
	RequestsAbandoned uint64
	PendingShed       uint64
	QuotaTrimmed      uint64
}

// counters are the node's statistics, updated with atomics so the
// per-datagram hot path never takes a lock just to count.
type counters struct {
	published, delivered, recovered, lossesDetected      atomic.Uint64
	gossipSent, eventsSent, served, droppedInject        atomic.Uint64
	malformed, misrouted                                 atomic.Uint64
	heartbeatsSent, neighborsSuspected, neighborsRevived atomic.Uint64
	requestsRetried, requestsAbandoned, pendingShed      atomic.Uint64
	quotaTrimmed                                         atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Published:          c.published.Load(),
		Delivered:          c.delivered.Load(),
		Recovered:          c.recovered.Load(),
		LossesDetected:     c.lossesDetected.Load(),
		GossipSent:         c.gossipSent.Load(),
		EventsSent:         c.eventsSent.Load(),
		Served:             c.served.Load(),
		DroppedInject:      c.droppedInject.Load(),
		Malformed:          c.malformed.Load(),
		Misrouted:          c.misrouted.Load(),
		HeartbeatsSent:     c.heartbeatsSent.Load(),
		NeighborsSuspected: c.neighborsSuspected.Load(),
		NeighborsRevived:   c.neighborsRevived.Load(),
		RequestsRetried:    c.requestsRetried.Load(),
		RequestsAbandoned:  c.requestsAbandoned.Load(),
		PendingShed:        c.pendingShed.Load(),
		QuotaTrimmed:       c.quotaTrimmed.Load(),
	}
}

// peerState is the failure detector's per-neighbor record, guarded by
// peerMu — a dedicated leaf lock so that per-datagram liveness updates
// never contend with the routing state under mu. Lock order: mu may be
// held when taking peerMu, never the reverse.
type peerState struct {
	lastSeen  time.Time
	suspected bool
}

// Node is one live dispatcher.
type Node struct {
	cfg   Config
	tr    transport
	disp  *Dispatcher // non-nil when hosted; owns the sockets
	start time.Time

	mu        sync.Mutex
	rng       *rand.Rand
	neighbors map[ident.NodeID]netip.AddrPort
	directory map[ident.NodeID]netip.AddrPort
	local     map[ident.PatternID]bool
	localSet  ident.PatternSet // in-range mirror of local; event-path fast match
	table     map[ident.PatternID][]ident.NodeID
	nextSeq   uint32
	patSeq    map[ident.PatternID]uint32
	received  *ident.EventIDSet

	buf      *cache.Cache
	patIdx   map[ident.PatternID]*ident.EventIDSet
	tagIdx   map[wire.LostEntry]ident.EventID
	lost     *core.LostBuffer
	high     map[srcPattern]uint32
	routes   map[ident.NodeID][]ident.NodeID
	pending  map[ident.EventID]*pendingReq
	pendingQ []*pendingReq // FIFO shadow of pending, oldest first
	ledger   ledger        // per-peer recovery-traffic accounting

	peerMu sync.Mutex
	peers  map[ident.NodeID]*peerState

	stats counters

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

type srcPattern struct {
	src ident.NodeID
	pat ident.PatternID
}

// NewNode binds a UDP socket and starts the node's receive loop (and
// gossip loop when recovery is enabled). Close releases everything.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	addr, err := net.ResolveUDPAddr("udp", cfg.Bind)
	if err != nil {
		return nil, fmt.Errorf("live: resolving %q: %w", cfg.Bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listening on %q: %w", cfg.Bind, err)
	}
	n := newNodeState(cfg, &sockTransport{conn: conn}, nil)
	n.wg.Add(1)
	go n.readLoop(conn)
	n.startLoops()
	return n, nil
}

// newNodeState builds the protocol state shared by standalone and
// hosted nodes. cfg must already carry defaults.
func newNodeState(cfg Config, tr transport, disp *Dispatcher) *Node {
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, 'l', int64(cfg.ID))))
	n := &Node{
		cfg:       cfg,
		tr:        tr,
		disp:      disp,
		start:     start,
		rng:       rng,
		neighbors: make(map[ident.NodeID]netip.AddrPort),
		directory: make(map[ident.NodeID]netip.AddrPort),
		local:     make(map[ident.PatternID]bool),
		table:     make(map[ident.PatternID][]ident.NodeID),
		patSeq:    make(map[ident.PatternID]uint32),
		received:  ident.NewEventIDSet(64),
		buf:       cache.New(cfg.BufferSize, cache.FIFOPolicy, nil),
		patIdx:    make(map[ident.PatternID]*ident.EventIDSet),
		tagIdx:    make(map[wire.LostEntry]ident.EventID),
		lost:      core.NewLostBuffer(cfg.LostCapacity, cfg.LostTTL),
		high:      make(map[srcPattern]uint32),
		routes:    make(map[ident.NodeID][]ident.NodeID),
		pending:   make(map[ident.EventID]*pendingReq),
		peers:     make(map[ident.NodeID]*peerState),
		done:      make(chan struct{}),
	}
	n.ledger.init()
	n.buf.SetOnEvict(n.unindexLocked)
	return n
}

// startLoops launches the timer-driven goroutines (gossip, heartbeat).
// The receive path is the caller's: standalone nodes run readLoop,
// hosted nodes are fed by their dispatcher's shard readers.
func (n *Node) startLoops() {
	if n.cfg.Algorithm != core.NoRecovery {
		n.wg.Add(1)
		go n.gossipLoop()
	}
	if n.cfg.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
}

// ID returns the dispatcher identifier.
func (n *Node) ID() ident.NodeID { return n.cfg.ID }

// Addr returns the UDP address peers use to reach this node — its own
// socket for a standalone node, the shard socket for a hosted one.
func (n *Node) Addr() *net.UDPAddr { return n.tr.localAddr() }

// Stats returns a snapshot of the counters.
func (n *Node) Stats() Stats { return n.stats.snapshot() }

// Close shuts the node down: goroutines are joined and, for a
// standalone node, the socket is closed. A hosted node deregisters
// from its dispatcher; the shard sockets stay up.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		err = n.tr.close()
		n.wg.Wait()
		if n.disp != nil {
			n.disp.removeNode(n.cfg.ID)
		}
	})
	return err
}

// toAddrPort converts a UDPAddr to the netip form the transports use,
// unmapping IPv4-in-IPv6 addresses: net.ResolveUDPAddr hands out
// 16-byte IPv4 representations, and a v4-mapped destination silently
// fails on an AF_INET socket.
func toAddrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	if ap.Addr().Is4In6() {
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return ap
}

// SetDirectory installs the id→address map used by out-of-band sends.
// The map is copied.
func (n *Node) SetDirectory(dir map[ident.NodeID]*net.UDPAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, a := range dir {
		n.directory[id] = toAddrPort(a)
	}
}

// AddNeighbor attaches a tree link toward the given dispatcher and
// advertises every known interest over it, exactly as OnLinkUp does in
// the simulator.
func (n *Node) AddNeighbor(id ident.NodeID, addr *net.UDPAddr) {
	ap := toAddrPort(addr)
	n.mu.Lock()
	n.neighbors[id] = ap
	n.directory[id] = ap
	var subs []ident.PatternID
	for p := range n.local {
		subs = append(subs, p)
	}
	for p := range n.table {
		if !n.local[p] && n.advertisedToLocked(p, id) {
			subs = append(subs, p)
		}
	}
	n.mu.Unlock()
	n.peerMu.Lock()
	n.peers[id] = &peerState{lastSeen: time.Now()} // grace period before the detector may suspect
	n.peerMu.Unlock()
	for _, p := range subs {
		n.sendTree(id, &wire.Subscribe{Pattern: p})
	}
}

// RemoveNeighbor detaches a tree link and flushes every route through
// it (OnLinkDown).
func (n *Node) RemoveNeighbor(id ident.NodeID) {
	n.mu.Lock()
	delete(n.neighbors, id)
	var stale []ident.PatternID
	for p, dirs := range n.table {
		for _, d := range dirs {
			if d == id {
				stale = append(stale, p)
				break
			}
		}
	}
	n.mu.Unlock()
	n.peerMu.Lock()
	delete(n.peers, id)
	n.peerMu.Unlock()
	for _, p := range stale {
		n.mu.Lock()
		outs := n.removeInterestLocked(p, id)
		n.mu.Unlock()
		n.flush(outs)
	}
}

// now returns the node's monotonic clock as a duration since start,
// the time base of the Lost buffer.
func (n *Node) now() time.Duration { return time.Since(n.start) }

// envelope layout: 4 bytes sender ID, 4 bytes destination ID, 1 byte
// flags, then the payload. The destination slot is how a dispatcher
// sharing one socket among thousands of hosted nodes routes each
// datagram to its node. A heartbeat envelope carries no payload: it is
// exactly envelopeLen bytes with the heartbeat flag set. A batch
// envelope's payload is a sequence of length-prefixed wire messages
// (wire.AppendFrame/NextFrame) sharing one sender, destination, and
// OOB flag.
const (
	envelopeLen   = 9
	flagOOB       = 1 << 0 // message arrived out of band (not over a tree link)
	flagHeartbeat = 1 << 1 // liveness-only datagram, no payload
	flagBatch     = 1 << 2 // payload is a sequence of framed messages
)

// putEnvelope writes the envelope header into b[:envelopeLen].
func putEnvelope(b []byte, from, to ident.NodeID, flags byte) {
	binary.LittleEndian.PutUint32(b, uint32(from))
	binary.LittleEndian.PutUint32(b[4:], uint32(to))
	b[8] = flags
}

// appendEnvelope appends the envelope header onto buf.
func appendEnvelope(buf []byte, from, to ident.NodeID, flags byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	return append(buf, flags)
}

// encodeEnvelope encodes msg in a self-addressed envelope — the shape
// handleDatagram accepts. Tests use it to synthesize valid datagrams.
func (n *Node) encodeEnvelope(buf []byte, msg wire.Message, oob bool) []byte {
	var flags byte
	if oob {
		flags = flagOOB
	}
	buf = appendEnvelope(buf[:0], n.cfg.ID, n.cfg.ID, flags)
	return msg.Append(buf)
}

// sendTree transmits msg to a direct neighbor, subject to injected
// loss. Subscription control messages are exempt: in a real deployment
// the control plane rides a reliable transport (TCP), while events and
// gossip are the best-effort data plane the paper studies.
func (n *Node) sendTree(to ident.NodeID, msg wire.Message) {
	kind := msg.Kind()
	control := kind == wire.KindSubscribe || kind == wire.KindUnsubscribe
	n.mu.Lock()
	addr, ok := n.neighbors[to]
	drop := !control && n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb
	n.mu.Unlock()
	if !ok {
		return
	}
	if drop {
		n.stats.droppedInject.Add(1)
		return
	}
	if kind.IsGossip() {
		n.stats.gossipSent.Add(1)
	} else if kind == wire.KindEvent {
		n.stats.eventsSent.Add(1)
	}
	n.tr.sendMsg(n.cfg.ID, to, addr, msg, false)
}

// sendOOB transmits msg to any dispatcher in the directory.
func (n *Node) sendOOB(to ident.NodeID, msg wire.Message) {
	n.mu.Lock()
	addr, ok := n.directory[to]
	n.mu.Unlock()
	if !ok {
		return
	}
	if kind := msg.Kind(); kind.IsGossip() {
		n.stats.gossipSent.Add(1)
	} else if kind == wire.KindRetransmit {
		n.stats.eventsSent.Add(uint64(len(msg.(*wire.Retransmit).Events)))
	}
	n.tr.sendMsg(n.cfg.ID, to, addr, msg, true)
}

func closing(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// readLoop receives datagrams until Close (standalone nodes only; a
// hosted node is fed by its dispatcher's shard readers). The 64 KB
// receive buffer is pooled across node lifetimes.
func (n *Node) readLoop(conn *net.UDPConn) {
	defer n.wg.Done()
	bp := recvBufPool.Get().(*[]byte)
	defer recvBufPool.Put(bp)
	buf := *bp
	for {
		nb, _, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if closing(err) {
				return
			}
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		n.handleDatagram(buf[:nb])
	}
}

// handleDatagram parses and dispatches one raw datagram. It must never
// panic on adversarial input: anything that does not parse is counted
// as malformed and dropped, like real UDP software. Split out from
// readLoop so tests can fuzz it without a socket.
func (n *Node) handleDatagram(buf []byte) {
	if len(buf) < envelopeLen {
		n.stats.malformed.Add(1)
		return
	}
	from := ident.NodeID(binary.LittleEndian.Uint32(buf))
	dest := ident.NodeID(binary.LittleEndian.Uint32(buf[4:]))
	flags := buf[8]
	if dest != n.cfg.ID {
		n.stats.misrouted.Add(1)
		return
	}
	n.observePeer(from)
	if flags&flagHeartbeat != 0 {
		return // liveness only, no payload to decode
	}
	oob := flags&flagOOB != 0
	payload := buf[envelopeLen:]
	if flags&flagBatch != 0 {
		for len(payload) > 0 {
			frame, rest, err := wire.NextFrame(payload)
			if err != nil {
				n.stats.malformed.Add(1)
				return
			}
			msg, err := wire.Decode(frame)
			if err != nil {
				n.stats.malformed.Add(1)
				return
			}
			n.handle(from, msg, oob)
			payload = rest
		}
		return
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		n.stats.malformed.Add(1)
		return
	}
	n.handle(from, msg, oob)
}

// observePeer feeds the failure detector: any traffic from a tree
// neighbor proves it alive and clears a standing suspicion. With the
// detector disabled there is no state to maintain and the per-datagram
// cost is a single predictable branch.
func (n *Node) observePeer(from ident.NodeID) {
	if n.cfg.HeartbeatInterval == 0 {
		return
	}
	n.peerMu.Lock()
	if ps, ok := n.peers[from]; ok {
		ps.lastSeen = time.Now()
		if ps.suspected {
			ps.suspected = false
			n.stats.neighborsRevived.Add(1)
		}
	}
	n.peerMu.Unlock()
}

// isSuspect reports whether the failure detector currently suspects
// id. Safe to call with mu held (peerMu is a leaf lock).
func (n *Node) isSuspect(id ident.NodeID) bool {
	if n.cfg.HeartbeatInterval == 0 {
		return false
	}
	n.peerMu.Lock()
	ps, ok := n.peers[id]
	s := ok && ps.suspected
	n.peerMu.Unlock()
	return s
}

// gossipLoop runs a gossip round every interval, with a random initial
// phase like the simulator's jittered ticker.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	phase := time.Duration(rand.New(rand.NewSource(sim.DeriveSeed(n.cfg.Seed, 'p', int64(n.cfg.ID)))).
		Int63n(int64(n.cfg.GossipInterval)))
	timer := time.NewTimer(phase)
	select {
	case <-timer.C:
	case <-n.done:
		timer.Stop()
		return
	}
	ticker := time.NewTicker(n.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.gossipRound()
		case <-n.done:
			return
		}
	}
}

// heartbeatLoop drives the failure detector: each tick heartbeats
// every tree neighbor and suspects the silent ones.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.heartbeat()
		case <-n.done:
			return
		}
	}
}

func (n *Node) heartbeat() {
	type hb struct {
		id   ident.NodeID
		addr netip.AddrPort
	}
	n.mu.Lock()
	targets := make([]hb, 0, len(n.neighbors))
	for id, addr := range n.neighbors {
		targets = append(targets, hb{id: id, addr: addr})
	}
	n.mu.Unlock()
	now := time.Now()
	n.peerMu.Lock()
	for _, t := range targets {
		if ps, ok := n.peers[t.id]; ok && !ps.suspected && now.Sub(ps.lastSeen) > n.cfg.HeartbeatTimeout {
			ps.suspected = true
			n.stats.neighborsSuspected.Add(1)
		}
	}
	n.peerMu.Unlock()
	n.stats.heartbeatsSent.Add(uint64(len(targets)))
	for _, t := range targets {
		n.tr.sendHeartbeat(n.cfg.ID, t.id, t.addr)
	}
}

// SuspectedNeighbors returns the neighbors the failure detector
// currently suspects, for tests and monitoring.
func (n *Node) SuspectedNeighbors() []ident.NodeID {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	out := make([]ident.NodeID, 0, len(n.peers))
	for id, ps := range n.peers {
		if ps.suspected {
			out = append(out, id)
		}
	}
	return out
}
