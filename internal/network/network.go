// Package network models the communication substrate of the paper's
// evaluation (Sec. IV-A, "Channel reliability"): every overlay link
// behaves like a 10 Mbit/s Ethernet link with FIFO serialization, a
// propagation delay, and an independent Bernoulli loss trial per
// message (rate ε); plus the out-of-band unicast channel (UDP-like,
// possibly lossy) that the epidemic algorithms use for retransmission
// requests and replies (paper Sec. III-B).
package network

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Handler consumes messages delivered to one dispatcher.
type Handler interface {
	// HandleMessage processes msg sent by from. oob marks messages that
	// arrived on the out-of-band channel rather than a tree link.
	HandleMessage(from ident.NodeID, msg wire.Message, oob bool)
}

// Observer receives traffic callbacks for metrics. All methods are
// invoked synchronously at virtual send/delivery times.
type Observer interface {
	// OnSend fires for every transmission attempt (per hop).
	OnSend(from, to ident.NodeID, msg wire.Message, oob bool)
	// OnLoss fires when a transmission is dropped (channel loss or a
	// link that disappeared while the message was in flight).
	OnLoss(from, to ident.NodeID, msg wire.Message, oob bool)
}

// MultiObserver fans callbacks out to several observers in order.
func MultiObserver(obs ...Observer) Observer {
	return multiObserver(obs)
}

type multiObserver []Observer

// OnSend implements Observer.
func (m multiObserver) OnSend(from, to ident.NodeID, msg wire.Message, oob bool) {
	for _, o := range m {
		o.OnSend(from, to, msg, oob)
	}
}

// OnLoss implements Observer.
func (m multiObserver) OnLoss(from, to ident.NodeID, msg wire.Message, oob bool) {
	for _, o := range m {
		o.OnLoss(from, to, msg, oob)
	}
}

// ArrivalObserver receives a callback at the virtual arrival time of
// every transmission that was actually put on a channel (i.e. every
// Send/SendOOB that scheduled an arrival; attempts dropped at send
// time never reach it). It exists for invariant checking: the callback
// carries enough state (link incarnation, send time, outcome) for an
// external monitor to re-derive what the arrival time must be and
// verify FIFO ordering per directed link. It is invoked before the
// message is handed to the destination handler, so monitor state is
// consistent when the handler triggers follow-up sends.
type ArrivalObserver interface {
	OnArrive(from, to ident.NodeID, msg wire.Message, oob bool, inc uint64, sentAt sim.Time, delivered bool)
}

// NopObserver ignores all callbacks.
type NopObserver struct{}

var _ Observer = NopObserver{}

// OnSend implements Observer.
func (NopObserver) OnSend(ident.NodeID, ident.NodeID, wire.Message, bool) {}

// OnLoss implements Observer.
func (NopObserver) OnLoss(ident.NodeID, ident.NodeID, wire.Message, bool) {}

// Config carries the channel-model parameters.
type Config struct {
	// BandwidthBPS is the link bandwidth in bits per second
	// (10 Mbit/s in the paper).
	BandwidthBPS float64
	// PropDelay is the per-link propagation delay.
	PropDelay sim.Time
	// LossRate is ε, the per-hop Bernoulli loss probability on tree
	// links.
	LossRate float64
	// OOBLossRate is the loss probability of the out-of-band channel
	// (one trial end-to-end).
	OOBLossRate float64
	// OOBBaseDelay is the fixed latency component of the out-of-band
	// channel; the distance-dependent component is PropDelay per
	// overlay hop between the endpoints.
	OOBBaseDelay sim.Time
	// MessageBytes, when positive, forces every message to this size on
	// the wire — the paper's "size of event and gossip messages is the
	// same" assumption. When zero, true encoded sizes are used.
	MessageBytes int
	// ModelQueueing enables FIFO serialization on tree links: a message
	// waits for the transmissions already occupying the link.
	ModelQueueing bool
}

// TxTime returns the serialization delay of msg under this config:
// wire size (or the forced MessageBytes) clocked out at BandwidthBPS.
func (c Config) TxTime(msg wire.Message) sim.Time {
	size := c.MessageBytes
	if size <= 0 {
		size = msg.WireSize()
	}
	bits := float64(size * 8)
	return sim.Time(bits / c.BandwidthBPS * float64(time.Second))
}

// DefaultConfig returns the paper-calibrated channel model.
func DefaultConfig() Config {
	return Config{
		BandwidthBPS:  10e6,
		PropDelay:     100 * time.Microsecond,
		LossRate:      0.1,
		OOBLossRate:   0.1,
		OOBBaseDelay:  200 * time.Microsecond,
		MessageBytes:  200,
		ModelQueueing: true,
	}
}

// linkState is the FIFO occupancy of one directed adjacency slot. A
// slot belongs to a specific (neighbor, incarnation) pair: when the
// topology re-creates a link (new incarnation) or a different neighbor
// takes over the slot, the queued backlog belonged to a connection that
// no longer exists and is discarded.
type linkState struct {
	to    ident.NodeID
	inc   uint64
	until sim.Time // when the last queued transmission finishes
}

// Network delivers messages between dispatchers over the overlay tree
// and the out-of-band channel, in virtual time.
type Network struct {
	k        *sim.Kernel
	topo     *topology.Tree
	cfg      Config
	handlers []Handler
	obs      Observer
	arr      ArrivalObserver // nil unless invariant checking is on
	rng      *rand.Rand
	loss     LossModel

	// down marks crashed dispatchers: the network blackholes every
	// transmission from or to a down node, including messages already in
	// flight when the node went down (a dead process receives nothing).
	down []bool

	// busy[from] holds one linkState per adjacency slot of from
	// (degree ≤ MaxDegree), indexed by topology.NeighborSlot. Dense
	// storage replaces the per-send map hashing of the earlier
	// busyUntil []map[ident.NodeID]sim.Time representation.
	busy [][]linkState

	// freeDeliv recycles in-flight delivery records (and their bound
	// run closures) so that Send/SendOOB schedule without allocating.
	freeDeliv []*inflight

	sent      uint64
	delivered uint64
	lost      uint64
}

// inflight is one in-flight transmission: the state the delivery
// callback needs at arrival time. Records are pooled on the network's
// free list — the run closure is bound once, when the record is first
// created, and reused for every later flight of the record.
type inflight struct {
	nw       *Network
	from, to ident.NodeID
	msg      wire.Message
	inc      uint64   // link incarnation at send time (tree sends)
	sentAt   sim.Time // virtual time of the Send/SendOOB call
	dropped  bool     // loss trial outcome, drawn at send time
	oob      bool
	run      func() // bound to this record; allocated once
}

// getDelivery pops a pooled record or builds a fresh one.
func (nw *Network) getDelivery() *inflight {
	if n := len(nw.freeDeliv); n > 0 {
		d := nw.freeDeliv[n-1]
		nw.freeDeliv = nw.freeDeliv[:n-1]
		return d
	}
	d := &inflight{nw: nw}
	d.run = d.arrive
	return d
}

// arrive completes one transmission at its virtual arrival time and
// recycles the record.
func (d *inflight) arrive() {
	nw := d.nw
	// A message completes iff the receiver is still up and — for tree
	// sends — the loss trial passed and the link survived unchanged: a
	// link that disappeared mid-flight loses the message even if the
	// loss trial passed, and so does a link that was re-created in the
	// meantime (a new incarnation is a new connection).
	ok := !nw.down[d.to] && (d.oob || (!d.dropped && nw.linkIs(d.from, d.to, d.inc)))
	if nw.arr != nil {
		nw.arr.OnArrive(d.from, d.to, d.msg, d.oob, d.inc, d.sentAt, ok)
	}
	if ok {
		nw.deliver(d.from, d.to, d.msg, d.oob)
	} else {
		nw.lost++
		nw.obs.OnLoss(d.from, d.to, d.msg, d.oob)
	}
	d.msg = nil // release the message; the record outlives it
	nw.freeDeliv = append(nw.freeDeliv, d)
}

// linkIs reports whether from and to are connected by incarnation inc
// of their link.
func (nw *Network) linkIs(from, to ident.NodeID, inc uint64) bool {
	slot, cur := nw.topo.LinkSlot(from, to)
	return slot >= 0 && cur == inc
}

// New builds a network over topo. Handlers are registered later with
// Register; sending to a node without a handler panics (it is a wiring
// bug, not a runtime condition).
func New(k *sim.Kernel, topo *topology.Tree, cfg Config, obs Observer) *Network {
	if obs == nil {
		obs = NopObserver{}
	}
	n := topo.N()
	deg := topo.MaxDegree()
	slots := make([]linkState, n*deg)
	for i := range slots {
		slots[i].to = ident.None
	}
	busy := make([][]linkState, n)
	for i := range busy {
		busy[i] = slots[i*deg : (i+1)*deg : (i+1)*deg]
	}
	nw := &Network{
		k:        k,
		topo:     topo,
		cfg:      cfg,
		handlers: make([]Handler, n),
		obs:      obs,
		rng:      k.NewStream(0x6e657477), // "netw"
		busy:     busy,
		down:     make([]bool, n),
	}
	// The default model reproduces the historical inline Bernoulli
	// draws bit for bit: same stream, same rate>0 guard, same order.
	nw.loss = NewBernoulli(cfg.LossRate, cfg.OOBLossRate, nw.rng)
	return nw
}

// SetLossModel replaces the channel loss model mid-run or before the
// run starts. Passing nil is a wiring bug and panics.
func (nw *Network) SetLossModel(m LossModel) {
	if m == nil {
		panic("network: nil LossModel")
	}
	nw.loss = m
}

// SetArrivalObserver installs (or, with nil, removes) the arrival-time
// callback used by invariant monitors. The hot path pays one nil check
// per arrival when no observer is installed.
func (nw *Network) SetArrivalObserver(a ArrivalObserver) {
	nw.arr = a
}

// SetNodeDown marks a dispatcher crashed (true) or restarted (false).
// While down, every transmission from or to the node — including
// messages already in flight — is counted as lost.
func (nw *Network) SetNodeDown(id ident.NodeID, down bool) {
	nw.down[id] = down
}

// NodeDown reports whether the dispatcher is currently marked down.
func (nw *Network) NodeDown(id ident.NodeID) bool { return nw.down[id] }

// Register installs the handler for node id.
func (nw *Network) Register(id ident.NodeID, h Handler) {
	nw.handlers[id] = h
}

// Sent returns the number of transmission attempts so far.
func (nw *Network) Sent() uint64 { return nw.sent }

// Delivered returns the number of completed deliveries so far.
func (nw *Network) Delivered() uint64 { return nw.delivered }

// Lost returns the number of dropped transmissions so far.
func (nw *Network) Lost() uint64 { return nw.lost }

// txTime returns the serialization delay of msg.
func (nw *Network) txTime(msg wire.Message) sim.Time {
	return nw.cfg.TxTime(msg)
}

// Send transmits msg from one dispatcher to a direct neighbor on the
// overlay tree. Messages sent toward a non-neighbor (e.g. a link that
// broke between routing decision and send) are counted as lost. The
// link may also break while the message is in flight, which likewise
// loses it.
func (nw *Network) Send(from, to ident.NodeID, msg wire.Message) {
	nw.sent++
	nw.obs.OnSend(from, to, msg, false)
	slot, incarnation := nw.topo.LinkSlot(from, to)
	if slot < 0 || nw.down[from] || nw.down[to] {
		nw.lost++
		nw.obs.OnLoss(from, to, msg, false)
		return
	}
	start := nw.k.Now()
	tx := nw.txTime(msg)
	if nw.cfg.ModelQueueing {
		st := nw.queueState(from, to, slot, incarnation)
		if st.until > start {
			start = st.until
		}
		st.until = start + tx
	}
	arrival := start + tx + nw.cfg.PropDelay
	dropped := nw.loss.DropTree(from, to)
	d := nw.getDelivery()
	d.from, d.to, d.msg = from, to, msg
	d.inc, d.dropped, d.oob = incarnation, dropped, false
	d.sentAt = nw.k.Now()
	nw.k.At(arrival, d.run)
}

// queueState returns the FIFO state of the directed link (from, to)
// currently occupying adjacency slot, creating or resetting it as
// needed. A slot whose recorded (neighbor, incarnation) differs from
// the current link's is stale: either a RemoveLink at from compacted
// the adjacency list (the state may have moved to another slot — it is
// swapped back so a surviving link keeps its genuine backlog), or the
// link was re-created (a new incarnation is a new connection and must
// NOT inherit the phantom backlog of its predecessor).
func (nw *Network) queueState(from, to ident.NodeID, slot int, inc uint64) *linkState {
	s := nw.busy[from]
	st := &s[slot]
	if st.to == to && st.inc == inc {
		return st
	}
	for j := range s {
		if j != slot && s[j].to == to && s[j].inc == inc {
			s[slot], s[j] = s[j], s[slot]
			return st
		}
	}
	*st = linkState{to: to, inc: inc}
	return st
}

// SendOOB transmits msg between two arbitrary dispatchers on the
// out-of-band unicast channel. The channel ignores overlay link state;
// its latency grows with the overlay distance between the endpoints
// (both dispatchers sit on the same physical network, and overlay
// distance is our proxy for network distance).
func (nw *Network) SendOOB(from, to ident.NodeID, msg wire.Message) {
	if from == to {
		panic(fmt.Sprintf("network: OOB self-send at %v", from))
	}
	nw.sent++
	nw.obs.OnSend(from, to, msg, true)
	if nw.down[from] || nw.down[to] || nw.loss.DropOOB(from, to) {
		nw.lost++
		nw.obs.OnLoss(from, to, msg, true)
		return
	}
	hops := nw.topo.Dist(from, to)
	if hops < 0 {
		hops = nw.topo.N() / 2 // partitioned overlay: assume far apart
	}
	delay := nw.cfg.OOBBaseDelay + sim.Time(hops)*nw.cfg.PropDelay + nw.txTime(msg)
	d := nw.getDelivery()
	d.from, d.to, d.msg = from, to, msg
	d.inc, d.dropped, d.oob = 0, false, true
	d.sentAt = nw.k.Now()
	nw.k.At(nw.k.Now()+delay, d.run)
}

func (nw *Network) deliver(from, to ident.NodeID, msg wire.Message, oob bool) {
	h := nw.handlers[to]
	if h == nil {
		panic(fmt.Sprintf("network: no handler registered for %v", to))
	}
	nw.delivered++
	h.HandleMessage(from, msg, oob)
}
