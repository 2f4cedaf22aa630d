package live

import (
	"math"
	"net/netip"
	"time"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/wire"
)

// This file is the seam between the protocol core and the sockets: the
// locked section every entry point runs in, the pubsub.Net the core
// sends through, and the ingress guard in front of the core.

// never is the read deadline of a shard whose kernel has no timer.
const never = sim.Time(math.MaxInt64)

// lock takes the shard lock and runs the kernel up to the present, so
// every timer of every hosted node that fell due (gossip rounds,
// heartbeats) fires before the caller's own work.
func (s *shard) lock() {
	s.mu.Lock()
	if s.k != nil {
		s.k.Run(time.Since(s.d.epoch))
	}
}

// unlock releases the shard lock, then reports the deliveries its nodes
// made and transmits the records they sent.
func (s *shard) unlock() { s.release(nil, nil) }

// release is unlock for a caller that keeps scratch buffers: the
// shard's collected records and deliveries are swapped for outs and ds
// (emptied), and the caller gets them back, cleared, once they are
// handed on. Before the lock is released the socket's read deadline
// moves to the kernel's next timer, so the shard loop wakes when it is
// due.
func (s *shard) release(outs []out, ds []delivery) ([]out, []delivery) {
	outs, s.outs = s.outs, outs[:0]
	ds, s.delivs = s.delivs, ds[:0]
	s.armLocked()
	s.mu.Unlock()
	for _, d := range ds {
		d.fn(d.ev, d.recovered)
	}
	for _, o := range outs {
		s.tr.send(o)
	}
	clear(outs)
	clear(ds)
	return outs[:0], ds[:0]
}

// armLocked keeps the socket's read deadline on the kernel's next
// timer. Only a change costs a call into the poller.
func (s *shard) armLocked() {
	if s.pc == nil || s.k == nil {
		return
	}
	at, ok := s.k.NextAt()
	if !ok {
		at = never
	}
	if at == s.deadline {
		return
	}
	s.deadline = at
	var t time.Time
	if ok {
		t = s.d.epoch.Add(at)
	}
	// The only failure is a closed socket, which the loop's next read
	// reports.
	_ = s.pc.setReadDeadline(t)
}

// onDeliver is the pubsub delivery hook: count, and queue the OnDeliver
// callback for after the shard lock is released.
func (n *Node) onDeliver(_ ident.NodeID, ev *wire.Event, recovered bool) {
	n.stats.Delivered++
	if recovered {
		n.stats.Recovered++
	}
	if fn := n.cfg.OnDeliver; fn != nil {
		n.sh.delivs = append(n.sh.delivs, delivery{fn: fn, ev: ev, recovered: recovered})
	}
}

// coreNet is the pubsub.Net of a live node. Its methods run under the
// shard lock, inside the core: they resolve the destination, apply the
// driver's accounting, and queue the record on the shard.
type coreNet struct{ n *Node }

// Register implements pubsub.Net; a live node feeds its core directly.
func (coreNet) Register(ident.NodeID, network.Handler) {}

// Send implements pubsub.Net: a tree send to a current neighbor,
// subject to injected loss. Subscription control messages are exempt:
// in a real deployment the control plane rides a reliable transport
// (TCP), while events and gossip are the best-effort data plane the
// paper studies. A send to a node that is no longer a neighbor is lost,
// as on the simulator's network, and gossip to a neighbor the failure
// detector suspects is dropped: a wasted transmission to a dead peer.
func (c coreNet) Send(_, to ident.NodeID, msg wire.Message) {
	n := c.n
	nb := n.neighbors[to]
	if nb == nil {
		return
	}
	k := msg.Kind()
	if k.IsGossip() && nb.suspected {
		return
	}
	if k != wire.KindSubscribe && k != wire.KindUnsubscribe &&
		n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb {
		n.stats.DroppedInject++
		return
	}
	n.sendLocked(to, nb.addr, msg, false)
}

// SendOOB implements pubsub.Net: an out-of-band send to any directory
// member; unknown destinations are dropped. Recovery traffic is entered
// in the ledger.
func (c coreNet) SendOOB(_, to ident.NodeID, msg wire.Message) {
	n := c.n
	switch m := msg.(type) {
	case *wire.Request:
		n.ledgerSentLocked(to, m.WireSize())
	case *wire.Retransmit:
		n.stats.Served += uint64(len(m.Events))
		bytes := 0
		for _, ev := range m.Events {
			bytes += ev.WireSize()
		}
		n.ledgerSentLocked(to, bytes)
	}
	if addr, ok := n.directory[to]; ok {
		n.sendLocked(to, addr, msg, true)
	}
}

// sendLocked counts one record from n and queues it on the shard, which
// transmits it once its lock is released. A nil msg is a heartbeat.
func (n *Node) sendLocked(to ident.NodeID, addr netip.AddrPort, msg wire.Message, oob bool) {
	if msg != nil {
		switch kind := msg.Kind(); {
		case kind.IsGossip():
			n.stats.GossipSent++
		case kind == wire.KindEvent:
			n.stats.EventsSent++
		case kind == wire.KindRetransmit:
			n.stats.EventsSent += uint64(len(msg.(*wire.Retransmit).Events))
		}
	}
	n.sh.outs = append(n.sh.outs, out{from: n.cfg.ID, to: to, addr: addr, msg: msg, oob: oob})
}

// maxPattern bounds the pattern identifiers a live node accepts from
// the network. The core indexes its routing and event-index rows by
// pattern, so an identifier is an allocation size: 65,536 patterns is
// hundreds of times the content space of any experiment here, while a
// forged 1<<31 would ask for gigabytes.
const maxPattern = 1 << 16

// admissible is the ingress guard: the core trusts its input, so
// anything it would index by a forged identifier or reject with a panic
// is refused here. Patterns must lie in [0, maxPattern); an event (on
// the tree or inside a retransmission) must come from this node or a
// directory member, whose routes and loss-detection marks the core
// keeps per source; its sequence number and every tag's must be at
// least 1, as dispatchers stamp them (the core's pull index marks a free
// slot with tag 0); and a raw event never arrives out of band. Callers
// hold the shard lock.
func (n *Node) admissible(msg wire.Message, oob bool) bool {
	switch m := msg.(type) {
	case *wire.Event:
		return !oob && n.eventOK(m)
	case *wire.Subscribe:
		return patternOK(m.Pattern)
	case *wire.Unsubscribe:
		return patternOK(m.Pattern)
	case *wire.Retransmit:
		for _, ev := range m.Events {
			if !n.eventOK(ev) {
				return false
			}
		}
	}
	return true
}

func patternOK(p ident.PatternID) bool { return p >= 0 && p < maxPattern }

func (n *Node) eventOK(ev *wire.Event) bool {
	if _, ok := n.directory[ev.ID.Source]; !ok && ev.ID.Source != n.cfg.ID {
		return false
	}
	if ev.ID.Seq == 0 {
		return false
	}
	for _, p := range ev.Content {
		if !patternOK(p) {
			return false
		}
	}
	for _, t := range ev.Tags {
		if !patternOK(t.Pattern) || t.Seq == 0 {
			return false
		}
	}
	return true
}

// ingressLocked enters the recovery traffic each peer sent in the
// ledger before the core sees it. Callers hold the shard lock.
func (n *Node) ingressLocked(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Request:
		n.ledgerRecvLocked(m.Requester, m.WireSize())
	case *wire.Retransmit:
		for _, ev := range m.Events {
			n.ledgerRecvLocked(m.Responder, ev.WireSize())
		}
	}
}
