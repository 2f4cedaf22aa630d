package live

import (
	"time"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/wire"
)

// This file is the seam between the protocol core and the sockets: the
// locked section every entry point runs in, the pubsub.Net the core
// sends through, the ingress guard in front of the core, and the timer
// goroutine that advances the node's kernel in real time.

// lock takes the node's lock and runs the kernel up to the present, so
// every timer that fell due since the last entry point (gossip rounds,
// request retries, heartbeats) fires before the entry point's own work.
func (n *Node) lock() {
	n.mu.Lock()
	n.k.Run(n.now())
}

// unlock releases the lock, then reports the deliveries the core made
// and transmits the messages it sent. An entry point that scheduled a
// timer earlier than the timer goroutine's wake-up nudges it.
func (n *Node) unlock() {
	outs, ds := n.outs, n.delivs
	n.outs, n.delivs = nil, nil
	at, ok := n.k.NextAt()
	nudge := ok && (n.wakeAt < 0 || at < n.wakeAt)
	if nudge {
		n.wakeAt = at
	}
	n.mu.Unlock()
	if nudge {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
	for _, d := range ds {
		n.cfg.OnDeliver(d.ev, d.recovered)
	}
	n.flush(outs)
}

// timerLoop drives the kernel in real time: it sleeps until the next
// scheduled timer (or a nudge from an entry point that scheduled an
// earlier one), then runs the kernel through lock/unlock.
func (n *Node) timerLoop() {
	defer n.wg.Done()
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		n.lock()
		at, ok := n.k.NextAt()
		n.wakeAt = -1
		if ok {
			n.wakeAt = at
		}
		n.unlock()
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		var fire <-chan time.Time
		if ok {
			t.Reset(at - n.now())
			fire = t.C
		}
		select {
		case <-fire:
		case <-n.wake:
		case <-n.done:
			return
		}
	}
}

// onDeliver is the pubsub delivery hook: count, and queue the OnDeliver
// callback for after unlock.
func (n *Node) onDeliver(_ ident.NodeID, ev *wire.Event, recovered bool) {
	n.stats.delivered.Add(1)
	if recovered {
		n.stats.recovered.Add(1)
	}
	if n.cfg.OnDeliver != nil {
		n.delivs = append(n.delivs, delivery{ev: ev, recovered: recovered})
	}
}

// coreNet is the pubsub.Net of a live node. Its methods run under the
// node's lock, inside the core: they resolve the destination, apply the
// driver's accounting, and append to the out-buffer.
type coreNet struct{ n *Node }

// Register implements pubsub.Net; a live node feeds its core directly.
func (coreNet) Register(ident.NodeID, network.Handler) {}

// Send implements pubsub.Net: a tree send to a current neighbor,
// subject to injected loss. Subscription control messages are exempt:
// in a real deployment the control plane rides a reliable transport
// (TCP), while events and gossip are the best-effort data plane the
// paper studies. A send to a node that is no longer a neighbor is lost,
// as on the simulator's network.
func (c coreNet) Send(_, to ident.NodeID, msg wire.Message) {
	n := c.n
	addr, ok := n.neighbors[to]
	if !ok {
		return
	}
	if k := msg.Kind(); k != wire.KindSubscribe && k != wire.KindUnsubscribe &&
		n.cfg.DropProb > 0 && n.k.Rand().Float64() < n.cfg.DropProb {
		n.stats.droppedInject.Add(1)
		return
	}
	n.outs = append(n.outs, out{to: to, addr: addr, msg: msg})
}

// SendOOB implements pubsub.Net: an out-of-band send to any directory
// member. Push requests enter the pending table; recovery traffic is
// entered in the ledger.
func (c coreNet) SendOOB(_, to ident.NodeID, msg wire.Message) {
	n := c.n
	switch m := msg.(type) {
	case *wire.Request:
		n.trackRequestLocked(to, m)
		n.ledgerSentLocked(to, m.WireSize())
	case *wire.Retransmit:
		n.stats.served.Add(uint64(len(m.Events)))
		bytes := 0
		for _, ev := range m.Events {
			bytes += ev.WireSize()
		}
		n.ledgerSentLocked(to, bytes)
	}
	n.sendOOBLocked(to, msg)
}

// sendOOBLocked queues an out-of-band send; unknown destinations are
// dropped.
func (n *Node) sendOOBLocked(to ident.NodeID, msg wire.Message) {
	if addr, ok := n.directory[to]; ok {
		n.outs = append(n.outs, out{to: to, addr: addr, msg: msg, oob: true})
	}
}

// flush transmits the messages collected under the lock. Gossip to a
// neighbor the failure detector suspects is dropped here: a wasted
// transmission to a dead peer.
func (n *Node) flush(outs []out) {
	for _, o := range outs {
		if o.msg == nil {
			n.tr.sendHeartbeat(n.cfg.ID, o.to, o.addr)
			continue
		}
		switch kind := o.msg.Kind(); {
		case kind.IsGossip():
			if !o.oob && n.isSuspect(o.to) {
				continue
			}
			n.stats.gossipSent.Add(1)
		case kind == wire.KindEvent:
			n.stats.eventsSent.Add(1)
		case kind == wire.KindRetransmit:
			n.stats.eventsSent.Add(uint64(len(o.msg.(*wire.Retransmit).Events)))
		}
		n.tr.sendMsg(n.cfg.ID, o.to, o.addr, o.msg, o.oob)
	}
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
// keeps per source; and a raw event never arrives out of band. Callers
// hold n.mu.
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
	for _, p := range ev.Content {
		if !patternOK(p) {
			return false
		}
	}
	for _, t := range ev.Tags {
		if !patternOK(t.Pattern) {
			return false
		}
	}
	return true
}

// ingressLocked applies the driver's bookkeeping to recovery traffic
// before the core sees it: the ledger records what each peer sent, and
// a retransmitted event answers its pending request. Callers hold n.mu.
func (n *Node) ingressLocked(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Request:
		n.ledgerRecvLocked(m.Requester, m.WireSize())
	case *wire.Retransmit:
		for _, ev := range m.Events {
			n.ledgerRecvLocked(m.Responder, ev.WireSize())
			n.resolvePendingLocked(ev.ID)
		}
	}
}
