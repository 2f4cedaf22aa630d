// Package live runs the paper's protocols for real: dispatchers are
// processes communicating over UDP sockets (stdlib net only), not
// simulated components on a virtual clock.
//
// A live node is a driver around the simulator's protocol core: a
// pubsub.Node (subscription forwarding, reverse-path event routing) and
// a core.Engine (sequence-tag loss detection and the epidemic
// recoveries; none under NoRecovery). Every node runs on a Dispatcher
// (dispatcher.go), which hosts many nodes on a small fixed set of shard
// sockets with batched I/O and coalesced sends. A shard has the
// simulator's shape on a real clock: one sim.Kernel holds the timers of
// every node on the shard, one lock guards all of their state, and one
// loop drives them. The loop reads the shard socket with its read
// deadline set to the kernel's next timer. Every entry point — a
// datagram, Publish, Subscribe, a link change, a due timer — takes the
// shard lock and first runs the kernel up to the real time elapsed
// since the dispatcher's epoch, so gossip rounds and heartbeats are
// kernel timers, and the engine's jittered ticker, adaptive period and
// random streams work unchanged. The core sends through the pubsub.Net
// seam, which here queues records on the shard; they go to the socket
// writer, and deliveries to OnDeliver, after the lock is released. A
// hosted node owns no goroutine and no lock.
//
// What is live-only stays in the driver and acts on the messages the
// core emits and receives: injected loss (DropProb), the failure
// detector's suspect skipping, and the per-peer fairness ledger
// (ledger.go) with its serve quota. An ingress guard drops input the
// core would trust blindly (see admissible). The node keeps no request
// table of its own: the core's pending table is the only record of
// outstanding push requests, and a lost request is healed as in the
// simulator — a later digest advertises the event again and the core
// requests it again.
//
// The package exists for two reasons: it demonstrates that the
// simulated protocols are implementable as-is — it runs the very same
// code over the same wire format — and it gives downstream users a
// deployable starting point rather than only a simulation.
//
// NewNode is the one-node case: a private dispatcher with one socket,
// closed with the node.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
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
	// ServeBudget caps the bytes of recovery traffic (Retransmit
	// payloads) served to any single peer per LedgerWindow; events
	// beyond the budget are withheld and counted in Stats.QuotaTrimmed.
	// Zero disables the quota.
	ServeBudget int
	// LedgerWindow is the quota refill period. Zero means
	// 10×GossipInterval.
	LedgerWindow time.Duration
	// Seed drives the node's randomized choices. Zero means 1. The
	// first node of a dispatcher fixes the seed of its shard kernels,
	// from which each node's engine derives its stream; a later node
	// must leave Seed zero or repeat it.
	Seed int64
	// Epoch, when non-zero, anchors the dispatcher's monotonic clock —
	// the time base of its kernels, of PublishedAt stamps and of the
	// Lost buffer. Nodes sharing an epoch stamp directly comparable
	// PublishedAt values, which benchmark/live.go uses to measure
	// delivery latency against one clock. Zero means time.Now() when
	// the dispatcher's first node is added. That node fixes the epoch;
	// a later node must leave Epoch zero or repeat it.
	Epoch time.Time
	// OnDeliver, when non-nil, observes every local delivery. It is
	// called outside the shard lock, from the shard loop or from the
	// goroutine whose call caused the delivery.
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
	if c.HeartbeatInterval < 0 || c.HeartbeatTimeout < 0 || c.ServeBudget < 0 || c.LedgerWindow < 0 {
		return c, g, fmt.Errorf("live: negative heartbeat or ledger setting")
	}
	if c.HeartbeatInterval > 0 && c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.LedgerWindow == 0 {
		c.LedgerWindow = 10 * c.GossipInterval
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, g, nil
}

// Stats holds a live node's counters. The node counts under its shard
// lock; Node.Stats returns a copy.
type Stats struct {
	Published      uint64
	Delivered      uint64
	Recovered      uint64
	LossesDetected uint64
	GossipSent     uint64
	EventsSent     uint64
	Served         uint64
	DroppedInject  uint64
	// Malformed counts records dropped because their message failed to
	// decode or failed the ingress guard — counted, never fatal.
	// Misrouted counts records handed to this node whose destination
	// slot names another node.
	Malformed uint64
	Misrouted uint64
	// HeartbeatsSent, NeighborsSuspected, and NeighborsRevived report
	// the failure detector (zero when HeartbeatInterval is 0).
	HeartbeatsSent     uint64
	NeighborsSuspected uint64
	NeighborsRevived   uint64
	// QuotaTrimmed counts events withheld from retransmissions because
	// the requesting peer exhausted its ServeBudget for the ledger
	// window.
	QuotaTrimmed uint64
	// RequestsRetried, RequestsAbandoned and PendingShed are always
	// zero: the node no longer retries, abandons or sheds push requests
	// (the core's pending table re-requests on a later digest).
	// benchmark/live.go still reports them; they go with the next
	// revision of the benchmark (ROADMAP item 12), as Params.Shards
	// does.
	RequestsRetried   uint64
	RequestsAbandoned uint64
	PendingShed       uint64
}

// neighbor is one tree link: where its records go, and the failure
// detector's view of the peer.
type neighbor struct {
	addr      netip.AddrPort
	lastSeen  sim.Time // kernel time of the neighbor's last datagram
	suspected bool
}

// Node is one live dispatcher.
type Node struct {
	cfg Config
	// sh is the node's home shard: its lock guards everything below up
	// to closeOnce, and its kernel (k) is the node's clock and timer
	// queue.
	sh *shard
	// ownsDisp marks NewNode's private dispatcher, which Close closes.
	ownsDisp bool

	k   *sim.Kernel
	rng *rand.Rand // the driver's draws: injected loss
	ps  *pubsub.Node
	eng *core.Engine // nil under NoRecovery
	// heartbeat is the failure detector's ticker (nil when it is off).
	heartbeat *sim.Ticker
	neighbors map[ident.NodeID]*neighbor
	directory map[ident.NodeID]netip.AddrPort
	ledger    map[ident.NodeID]*peerLedger // directory members only

	stats Stats

	closeOnce sync.Once
}

// out is one record a node sent under the shard lock, with its
// destination resolved: what the shard hands its transport, and an
// entry of the socket writer's ring. A nil msg is a heartbeat.
type out struct {
	from, to ident.NodeID
	addr     netip.AddrPort
	msg      wire.Message
	oob      bool
}

// delivery is one local delivery awaiting its OnDeliver callback.
type delivery struct {
	fn        func(ev *wire.Event, recovered bool)
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

// start begins the node's gossip rounds and its failure detector:
// timers on its shard's kernel.
func (n *Node) start() {
	n.sh.lock()
	if n.eng != nil {
		n.eng.Start()
	}
	if iv := n.cfg.HeartbeatInterval; iv > 0 {
		n.heartbeat = sim.NewTicker(n.k, iv, iv, n.heartbeatLocked)
	}
	n.sh.unlock()
}

// ID returns the dispatcher identifier.
func (n *Node) ID() ident.NodeID { return n.cfg.ID }

// Addr returns the UDP address peers use to reach this node: its home
// shard's socket.
func (n *Node) Addr() *net.UDPAddr { return n.sh.tr.localAddr() }

// Stats returns a snapshot of the counters.
func (n *Node) Stats() Stats {
	n.sh.mu.Lock()
	defer n.sh.mu.Unlock()
	st := n.stats
	if n.eng != nil {
		st.LossesDetected = n.eng.Stats().LossesDetected
	}
	return st
}

// Close shuts the node down: it leaves its shard, and its gossip
// ticker and heartbeat ticker are stopped, so it leaves no
// live timer in the shared kernel. A node from NewNode then closes its
// private dispatcher and socket; a node from AddNode leaves the shard
// sockets up for the others.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		s := n.sh
		s.lock()
		// Deregister first: Dispatcher.Close closes the nodes it still
		// hosts, and this one is already inside closeOnce.
		delete(s.nodes, n.cfg.ID)
		if n.eng != nil {
			n.eng.Stop()
		}
		if n.heartbeat != nil {
			n.heartbeat.Stop()
		}
		s.unlock()
		if n.ownsDisp {
			err = s.d.Close()
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
	n.sh.lock()
	for id, a := range dir {
		n.directory[id] = toAddrPort(a)
	}
	n.sh.unlock()
}

// AddNeighbor attaches a tree link toward the given dispatcher and
// advertises every known interest over it (pubsub.Node.OnLinkUp). The
// failure detector starts the neighbor afresh: its silence is timed
// from now.
func (n *Node) AddNeighbor(id ident.NodeID, addr *net.UDPAddr) {
	ap := toAddrPort(addr)
	n.sh.lock()
	_, known := n.neighbors[id]
	n.neighbors[id] = &neighbor{addr: ap, lastSeen: n.k.Now()}
	n.directory[id] = ap
	if !known {
		n.ps.OnLinkUp(id)
	}
	n.sh.unlock()
}

// RemoveNeighbor detaches a tree link and flushes every route through
// it (pubsub.Node.OnLinkDown).
func (n *Node) RemoveNeighbor(id ident.NodeID) {
	n.sh.lock()
	if _, ok := n.neighbors[id]; ok {
		delete(n.neighbors, id)
		n.ps.OnLinkDown(id)
	}
	n.sh.unlock()
}

// Subscribe registers a local subscription and propagates it through
// the tree (subscription forwarding, paper Sec. II).
func (n *Node) Subscribe(p ident.PatternID) {
	n.sh.lock()
	n.ps.Subscribe(p)
	n.sh.unlock()
}

// Unsubscribe removes a local subscription and propagates the removal.
func (n *Node) Unsubscribe(p ident.PatternID) {
	n.sh.lock()
	n.ps.Unsubscribe(p)
	n.sh.unlock()
}

// Subscriptions returns the locally subscribed patterns.
func (n *Node) Subscriptions() []ident.PatternID {
	n.sh.mu.Lock()
	defer n.sh.mu.Unlock()
	return append([]ident.PatternID(nil), n.ps.LocalPatterns()...)
}

// KnownPatternCount returns the number of patterns with local or
// remote interest — tests use it to watch subscription propagation.
func (n *Node) KnownPatternCount() int {
	n.sh.mu.Lock()
	defer n.sh.mu.Unlock()
	return len(n.ps.KnownPatterns())
}

// Publish stamps and routes a new event, returning its identifier.
func (n *Node) Publish(content matching.Content) ident.EventID {
	n.sh.lock()
	ev := n.ps.Publish(content, 0)
	n.stats.Published++
	n.sh.unlock()
	return ev.ID
}

// A datagram is a sequence of records, each one message between two
// nodes: 4 bytes sender ID, 4 bytes destination ID, 1 byte flags, a
// 2-byte message length (a wire frame), then the encoded message. The
// destination slot is how a dispatcher sharing one socket among
// thousands of hosted nodes hands each record to its node, and it lets
// the records of every node behind one socket share a datagram. A
// heartbeat is a record of length 0: no wire message encodes to zero
// bytes.
const (
	envelopeLen  = 9                                // sender, destination, flags
	recordHeader = envelopeLen + wire.FrameOverhead // bytes before the message
	flagOOB      = 1 << 0                           // message sent out of band (not over a tree link)
)

// record is one parsed record. msg aliases the datagram's buffer and is
// empty for a heartbeat.
type record struct {
	from, to ident.NodeID
	flags    byte
	msg      []byte
}

// appendRecord appends one record onto buf; a nil msg is a heartbeat.
// The caller ensures msg's encoding fits in wire.MaxFrame.
func appendRecord(buf []byte, from, to ident.NodeID, msg wire.Message, oob bool) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	var flags byte
	if oob {
		flags = flagOOB
	}
	buf = append(buf, flags)
	if msg == nil {
		return append(buf, 0, 0)
	}
	return wire.AppendFrame(buf, msg)
}

// nextRecord splits the first record off buf. A header or message cut
// short by the end of buf is wire.ErrTruncated.
func nextRecord(buf []byte) (r record, rest []byte, err error) {
	if len(buf) < envelopeLen {
		return r, nil, wire.ErrTruncated
	}
	r.from = ident.NodeID(binary.LittleEndian.Uint32(buf))
	r.to = ident.NodeID(binary.LittleEndian.Uint32(buf[4:]))
	r.flags = buf[8]
	r.msg, rest, err = wire.NextFrame(buf[envelopeLen:])
	return r, rest, err
}

func closing(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// handleRecordLocked dispatches one record addressed to this node. It
// must never panic on adversarial input: a message that does not decode
// or fails the ingress guard is counted as malformed and dropped, like
// real UDP software. The shard's route calls it under the shard lock.
func (n *Node) handleRecordLocked(r record) {
	if r.to != n.cfg.ID {
		n.stats.Misrouted++
		return
	}
	n.observePeer(r.from)
	if len(r.msg) == 0 {
		return // heartbeat: liveness only
	}
	oob := r.flags&flagOOB != 0
	msg, err := wire.Decode(r.msg)
	if err != nil || !n.admissible(msg, oob) {
		n.stats.Malformed++
		return
	}
	n.ingressLocked(msg)
	n.ps.HandleMessage(r.from, msg, oob)
}

// observePeer feeds the failure detector: any traffic from a tree
// neighbor proves it alive and clears a standing suspicion. With the
// detector disabled there is no state to maintain and the per-datagram
// cost is a single predictable branch.
func (n *Node) observePeer(from ident.NodeID) {
	if n.cfg.HeartbeatInterval == 0 {
		return
	}
	if nb := n.neighbors[from]; nb != nil {
		nb.lastSeen = n.k.Now()
		if nb.suspected {
			nb.suspected = false
			n.stats.NeighborsRevived++
		}
	}
}

// heartbeatLocked is the failure detector's kernel tick: suspect the
// silent tree neighbors and heartbeat every one.
func (n *Node) heartbeatLocked() {
	now := n.k.Now()
	for id, nb := range n.neighbors {
		if !nb.suspected && now-nb.lastSeen > n.cfg.HeartbeatTimeout {
			nb.suspected = true
			n.stats.NeighborsSuspected++
		}
		n.sendLocked(id, nb.addr, nil, false)
	}
	n.stats.HeartbeatsSent += uint64(len(n.neighbors))
}

// SuspectedNeighbors returns the neighbors the failure detector
// currently suspects, for tests and monitoring.
func (n *Node) SuspectedNeighbors() []ident.NodeID {
	n.sh.mu.Lock()
	defer n.sh.mu.Unlock()
	var out []ident.NodeID
	for id, nb := range n.neighbors {
		if nb.suspected {
			out = append(out, id)
		}
	}
	return out
}
