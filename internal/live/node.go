// Package live runs the paper's protocols for real: dispatchers are
// processes communicating over UDP sockets (stdlib net only), not
// simulated components on a virtual clock.
//
// A live node is a driver around the simulator's protocol core. It owns
// a pubsub.Node (subscription forwarding, reverse-path event routing),
// a core.Engine (sequence-tag loss detection and the epidemic
// recoveries; none under NoRecovery) and a private sim.Kernel that
// serves as the node's clock and timer queue. Every entry point —
// a datagram, Publish, Subscribe, a link change, the node's timer
// goroutine — takes the node's lock and first runs the kernel up to the
// real time elapsed since the node's epoch, so gossip rounds, request
// retries and heartbeats are kernel timers, and the engine's jittered
// ticker, adaptive period and random streams work unchanged. The core
// sends through the pubsub.Net seam, which here appends to an
// out-buffer flushed to the sockets after the lock is released.
//
// What is live-only stays in the driver and acts on the messages the
// core emits and receives: injected loss (DropProb), the failure
// detector's suspect skipping, the per-peer fairness ledger (ledger.go)
// with its serve quota, request retry with backoff and abandonment, and
// greediest-first shedding of the pending-request table. An ingress
// guard drops input the core would trust blindly (see admissible).
//
// The package exists for two reasons: it demonstrates that the
// simulated protocols are implementable as-is — it runs the very same
// code over the same wire format — and it gives downstream users a
// deployable starting point rather than only a simulation.
//
// Every node runs on a Dispatcher (dispatcher.go), which hosts many
// nodes on a small fixed set of sockets with batched I/O and coalesced
// sends. NewNode is the one-node case: a private dispatcher with one
// socket, closed with the node.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes one live dispatcher. The protocol fields
// (Algorithm through LostTTL) are defaulted and validated by
// core.Config.Normalize, exactly as the simulator's are.
type Config struct {
	// ID identifies this dispatcher; must be unique in the network.
	ID ident.NodeID
	// Bind is the UDP address NewNode's socket listens on; empty means
	// 127.0.0.1:0. Dispatcher.AddNode ignores it: its nodes share the
	// dispatcher's sockets.
	Bind string
	// Algorithm selects the recovery variant; zero means NoRecovery,
	// which installs no engine. Hybrid runs the adaptive controller
	// with its default configuration.
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
	// Gossip to suspected neighbors is dropped (the tree keeps routing
	// events — healing the tree is the operator's job) and any incoming
	// traffic revives them. Zero disables the detector.
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
	// payloads) served to any single peer per LedgerWindow; events
	// beyond the budget are withheld and counted in Stats.QuotaTrimmed.
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

// normalize defaults cfg and validates it. The protocol fields go
// through core.Config.Normalize; the returned core.Config is the
// engine's configuration.
func (c Config) normalize() (Config, core.Config, error) {
	if c.Algorithm == 0 {
		c.Algorithm = core.NoRecovery
	}
	g, err := core.Config{
		Algorithm:      c.Algorithm,
		GossipInterval: c.GossipInterval,
		BufferSize:     c.BufferSize,
		PForward:       c.PForward,
		PSource:        c.PSource,
		LostCapacity:   c.LostCapacity,
		LostTTL:        c.LostTTL,
	}.Normalize()
	if err != nil {
		return c, g, fmt.Errorf("live: %w", err)
	}
	c.GossipInterval, c.BufferSize = g.GossipInterval, g.BufferSize
	c.PForward, c.PSource = g.PForward, g.PSource
	c.LostCapacity, c.LostTTL = g.LostCapacity, g.LostTTL
	if c.DropProb < 0 || c.DropProb > 1 {
		return c, g, fmt.Errorf("live: DropProb %v outside [0, 1]", c.DropProb)
	}
	if c.HeartbeatInterval < 0 || c.HeartbeatTimeout < 0 || c.RequestRetries < 0 || c.RequestBackoff < 0 ||
		c.MaxPending < 0 || c.ServeBudget < 0 || c.LedgerWindow < 0 {
		return c, g, fmt.Errorf("live: negative heartbeat, retry, pending or ledger setting")
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
	return c, g, nil
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
	// Malformed counts datagrams dropped because they were too short,
	// failed to decode, or failed the ingress guard — counted, never
	// fatal. Misrouted counts well-formed datagrams whose destination
	// slot names another node.
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
	published, delivered, recovered                      atomic.Uint64
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
// never contend with the protocol state under mu. Lock order: mu may be
// held when taking peerMu, never the reverse.
type peerState struct {
	lastSeen  time.Duration // n.now() of the neighbor's last datagram
	suspected bool
}

// Node is one live dispatcher.
type Node struct {
	cfg  Config
	tr   transport
	disp *Dispatcher // owns the sockets
	// ownsDisp marks NewNode's private dispatcher, which Close closes.
	ownsDisp bool
	start    time.Time

	// mu guards everything below it up to peerMu: the protocol core,
	// its kernel, and the driver state the core's sends feed.
	mu        sync.Mutex
	k         *sim.Kernel
	ps        *pubsub.Node
	eng       *core.Engine // nil under NoRecovery
	neighbors map[ident.NodeID]netip.AddrPort
	directory map[ident.NodeID]netip.AddrPort
	// outs and delivs collect what the core did under mu: the messages
	// it sent and the local deliveries it made. unlock hands both to
	// the sockets and to OnDeliver after releasing mu.
	outs   []out
	delivs []delivery
	// pending is the outstanding push-request table (retries.go).
	pending    ident.EventTable[*pendingReq]
	pendingQ   []*pendingReq // FIFO shadow of pending, oldest first
	retryTimer sim.Canceler
	retryAt    sim.Time // when retryTimer fires; meaningful while armed
	retryArmed bool
	ledger     map[ident.NodeID]*peerLedger // directory members only
	// wakeAt is the kernel time the timer goroutine sleeps until (-1:
	// nothing scheduled); an entry point that schedules an earlier
	// timer nudges the goroutine through wake.
	wakeAt sim.Time
	wake   chan struct{}

	peerMu sync.Mutex
	peers  map[ident.NodeID]*peerState

	stats counters

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// out is one outbound message the core (or the driver) decided under
// the lock, with its destination already resolved. A nil msg is a
// heartbeat.
type out struct {
	to   ident.NodeID
	addr netip.AddrPort
	msg  wire.Message
	oob  bool
}

// delivery is one local delivery awaiting its OnDeliver callback.
type delivery struct {
	ev        *wire.Event
	recovered bool
}

// NewNode starts one node on a private dispatcher with a single socket
// bound to cfg.Bind. Close releases the node, the socket and the
// dispatcher's goroutines.
func NewNode(cfg Config) (*Node, error) {
	// One node's traffic needs neither deep batches nor a deep ring. The
	// receive slab is Batch × 64 KB, so one slot keeps a few hundred
	// nodes per process as cheap as one socket each; 64 ring entries
	// cover a node's bursts, and a full ring blocks senders rather than
	// dropping.
	const (
		nodeBatch = 1
		nodeRing  = 64
	)
	d, err := NewDispatcher(DispatcherConfig{Bind: cfg.Bind, Sockets: 1, Batch: nodeBatch, Ring: nodeRing})
	if err != nil {
		return nil, err
	}
	n, err := d.AddNode(cfg)
	if err != nil {
		d.Close()
		return nil, err
	}
	n.ownsDisp = true
	return n, nil
}

// newNodeState builds a node's protocol core and driver state. cfg and
// gcfg come from normalize. No timer runs until startLoops.
func newNodeState(cfg Config, gcfg core.Config, tr transport, disp *Dispatcher) (*Node, error) {
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	// The kernel's root stream (k.Rand) is the driver's own: loss
	// injection and backoff jitter. The engine derives its stream from
	// the same seed.
	k := sim.New(sim.DeriveSeed(cfg.Seed, 'l', int64(cfg.ID)))
	n := &Node{
		cfg:       cfg,
		tr:        tr,
		disp:      disp,
		start:     start,
		k:         k,
		neighbors: make(map[ident.NodeID]netip.AddrPort),
		directory: make(map[ident.NodeID]netip.AddrPort),
		wakeAt:    -1,
		wake:      make(chan struct{}, 1),
		ledger:    make(map[ident.NodeID]*peerLedger),
		peers:     make(map[ident.NodeID]*peerState),
		done:      make(chan struct{}),
	}
	// Bring the clock to the present before anything is scheduled: a
	// shared Epoch may lie far in the past.
	n.k.Run(n.now())
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
	return n, nil
}

// startLoops starts gossip rounds and the failure detector on the
// kernel, and the timer goroutine that drives the kernel in real time.
// Datagrams arrive from the dispatcher's shard readers.
func (n *Node) startLoops() {
	n.lock()
	if n.eng != nil {
		n.eng.Start()
	}
	if n.cfg.HeartbeatInterval > 0 {
		iv := n.cfg.HeartbeatInterval
		sim.NewTicker(n.k, iv, iv, n.heartbeatLocked)
	}
	n.unlock()
	n.wg.Add(1)
	go n.timerLoop()
}

// ID returns the dispatcher identifier.
func (n *Node) ID() ident.NodeID { return n.cfg.ID }

// Addr returns the UDP address peers use to reach this node: its
// dispatcher shard's socket.
func (n *Node) Addr() *net.UDPAddr { return n.tr.localAddr() }

// Stats returns a snapshot of the counters.
func (n *Node) Stats() Stats {
	st := n.stats.snapshot()
	if n.eng != nil {
		n.mu.Lock()
		st.LossesDetected = n.eng.Stats().LossesDetected
		n.mu.Unlock()
	}
	return st
}

// Close shuts the node down: its goroutines are joined and it leaves
// its dispatcher. A node from NewNode then closes its private
// dispatcher and socket; a node from AddNode leaves the shard sockets
// up for the others.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		// Deregister first: Dispatcher.Close closes the nodes it still
		// hosts, and this one is already inside closeOnce.
		n.disp.removeNode(n.cfg.ID)
		if n.ownsDisp {
			err = n.disp.Close()
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
// The map is copied. The directory is also the node's trust domain:
// only its members are accounted in the ledger, served, or accepted as
// event sources.
func (n *Node) SetDirectory(dir map[ident.NodeID]*net.UDPAddr) {
	n.lock()
	for id, a := range dir {
		n.directory[id] = toAddrPort(a)
	}
	n.unlock()
}

// AddNeighbor attaches a tree link toward the given dispatcher and
// advertises every known interest over it (pubsub.Node.OnLinkUp).
func (n *Node) AddNeighbor(id ident.NodeID, addr *net.UDPAddr) {
	ap := toAddrPort(addr)
	n.lock()
	_, known := n.neighbors[id]
	n.neighbors[id] = ap
	n.directory[id] = ap
	if !known {
		n.ps.OnLinkUp(id)
	}
	n.unlock()
	n.peerMu.Lock()
	n.peers[id] = &peerState{lastSeen: n.now()} // grace period before the detector may suspect
	n.peerMu.Unlock()
}

// RemoveNeighbor detaches a tree link and flushes every route through
// it (pubsub.Node.OnLinkDown).
func (n *Node) RemoveNeighbor(id ident.NodeID) {
	n.lock()
	if _, ok := n.neighbors[id]; ok {
		delete(n.neighbors, id)
		n.ps.OnLinkDown(id)
	}
	n.unlock()
	n.peerMu.Lock()
	delete(n.peers, id)
	n.peerMu.Unlock()
}

// Subscribe registers a local subscription and propagates it through
// the tree (subscription forwarding, paper Sec. II).
func (n *Node) Subscribe(p ident.PatternID) {
	n.lock()
	n.ps.Subscribe(p)
	n.unlock()
}

// Unsubscribe removes a local subscription and propagates the removal.
func (n *Node) Unsubscribe(p ident.PatternID) {
	n.lock()
	n.ps.Unsubscribe(p)
	n.unlock()
}

// Subscriptions returns the locally subscribed patterns.
func (n *Node) Subscriptions() []ident.PatternID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]ident.PatternID(nil), n.ps.LocalPatterns()...)
}

// KnownPatternCount returns the number of patterns with local or
// remote interest — tests use it to watch subscription propagation.
func (n *Node) KnownPatternCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.ps.KnownPatterns())
}

// Publish stamps and routes a new event, returning its identifier.
func (n *Node) Publish(content matching.Content) ident.EventID {
	n.lock()
	ev := n.ps.Publish(content, 0)
	n.stats.published.Add(1)
	n.unlock()
	return ev.ID
}

// now returns the node's monotonic clock as a duration since start:
// the kernel's time base.
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

// encodeEnvelope encodes msg in an envelope from the given sender to
// this node — the shape handleDatagram accepts. Tests use it to
// synthesize valid datagrams.
func (n *Node) encodeEnvelope(buf []byte, from ident.NodeID, msg wire.Message, oob bool) []byte {
	var flags byte
	if oob {
		flags = flagOOB
	}
	buf = appendEnvelope(buf[:0], from, n.cfg.ID, flags)
	return msg.Append(buf)
}

func closing(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// handleDatagram parses and dispatches one raw datagram. It must never
// panic on adversarial input: anything that does not parse or fails the
// ingress guard is counted as malformed and dropped, like real UDP
// software. The dispatcher's route calls it; tests fuzz it without a
// socket.
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
	n.lock()
	defer n.unlock()
	if flags&flagBatch == 0 {
		n.receiveLocked(from, payload, oob)
		return
	}
	for len(payload) > 0 {
		frame, rest, err := wire.NextFrame(payload)
		if err != nil {
			n.stats.malformed.Add(1)
			return
		}
		if !n.receiveLocked(from, frame, oob) {
			return
		}
		payload = rest
	}
}

// receiveLocked decodes one message and hands it to the core; it
// reports false when the message was malformed (and counted).
func (n *Node) receiveLocked(from ident.NodeID, b []byte, oob bool) bool {
	msg, err := wire.Decode(b)
	if err != nil || !n.admissible(msg, oob) {
		n.stats.malformed.Add(1)
		return false
	}
	n.ingressLocked(msg)
	n.ps.HandleMessage(from, msg, oob)
	return true
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
		ps.lastSeen = n.now()
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

// heartbeatLocked is the failure detector's kernel tick: heartbeat
// every tree neighbor and suspect the silent ones.
func (n *Node) heartbeatLocked() {
	now := n.now()
	n.peerMu.Lock()
	for id := range n.neighbors {
		if ps, ok := n.peers[id]; ok && !ps.suspected && now-ps.lastSeen > n.cfg.HeartbeatTimeout {
			ps.suspected = true
			n.stats.neighborsSuspected.Add(1)
		}
	}
	n.peerMu.Unlock()
	for id, addr := range n.neighbors {
		n.outs = append(n.outs, out{to: id, addr: addr})
	}
	n.stats.heartbeatsSent.Add(uint64(len(n.neighbors)))
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
