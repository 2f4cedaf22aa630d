package live

import (
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The fairness ledger tracks recovery traffic (Request and Retransmit
// messages) per peer, in both directions. It exists because epidemic
// recovery has an adversarial failure mode the paper's simulations do
// not exercise: one lossy or malicious peer can monopolize a node's
// recovery capacity, either by flooding it with requests (serving cost)
// or by pushing digests that fill the pending-request table (memory
// cost), starving every other peer. The ledger bounds both:
//
//   - Serving is metered: each peer gets ServeBudget bytes of
//     Retransmit payload per LedgerWindow; events beyond the budget are
//     withheld from the response (and, on the gossip-pull path, left in
//     the "remaining" set so another replica can serve them). The
//     engine asks through its serve-admission hook.
//   - Shedding is greediest-first: when the pending table is full, the
//     victim is the peer with the most live entries (ties broken by
//     most recovery bytes received — the peer that has already consumed
//     the most), and its oldest entry is evicted. With a single active
//     peer this reduces to plain oldest-first.
//
// Only directory members are accounted (and served): a datagram can
// name any peer, and a ledger that grew an entry per forged identifier
// would be a memory leak any sender could drive.
//
// The design borrows the shape of Bitswap's per-peer ledgers: symmetric
// byte counters consulted at serve time, not a global rate limit, so a
// well-behaved peer's recovery is never throttled by a greedy one.

// PeerLedger is the public snapshot of one peer's ledger entry.
type PeerLedger struct {
	// BytesSent and MessagesSent count recovery traffic (Requests and
	// Retransmit payloads) transmitted to the peer.
	BytesSent    uint64
	MessagesSent uint64
	// BytesReceived and MessagesReceived count recovery traffic
	// received from the peer.
	BytesReceived    uint64
	MessagesReceived uint64
	// Pending is the number of live pending-request entries waiting on
	// digests this peer pushed.
	Pending int
}

// peerLedger is the mutable per-peer record, guarded by n.mu like the
// pending table it arbitrates.
type peerLedger struct {
	sentB, sentMsgs uint64
	recvB, recvMsgs uint64
	pending         int
	// windowServed is the Retransmit payload bytes served to this peer
	// in the window ending at windowEnd (kernel time); the quota refills
	// when the window rolls over.
	windowServed int
	windowEnd    sim.Time
}

// peerLedgerLocked returns peer's record, creating it on first use —
// or nil when peer is not in the directory. Callers hold n.mu.
func (n *Node) peerLedgerLocked(peer ident.NodeID) *peerLedger {
	pl, ok := n.ledger[peer]
	if !ok {
		if _, known := n.directory[peer]; !known {
			return nil
		}
		pl = &peerLedger{}
		n.ledger[peer] = pl
	}
	return pl
}

// ledgerSentLocked records recovery bytes transmitted to peer. Callers
// hold n.mu.
func (n *Node) ledgerSentLocked(peer ident.NodeID, bytes int) {
	if pl := n.peerLedgerLocked(peer); pl != nil {
		pl.sentB += uint64(bytes)
		pl.sentMsgs++
	}
}

// ledgerRecvLocked records recovery bytes received from peer. Callers
// hold n.mu.
func (n *Node) ledgerRecvLocked(peer ident.NodeID, bytes int) {
	if pl := n.peerLedgerLocked(peer); pl != nil {
		pl.recvB += uint64(bytes)
		pl.recvMsgs++
	}
}

// admitServeLocked is the engine's serve-admission hook: ev may go to
// peer if peer is a directory member with ServeBudget left in its
// current window (always, when no budget is configured). An admitted
// event is debited from the window at once. Runs inside the core,
// under n.mu.
func (n *Node) admitServeLocked(peer ident.NodeID, ev *wire.Event) bool {
	pl := n.peerLedgerLocked(peer)
	if pl == nil {
		return false
	}
	if n.cfg.ServeBudget <= 0 {
		return true
	}
	if now := n.k.Now(); now >= pl.windowEnd {
		pl.windowEnd = now + n.cfg.LedgerWindow
		pl.windowServed = 0
	}
	sz := ev.WireSize()
	if pl.windowServed+sz > n.cfg.ServeBudget {
		n.stats.quotaTrimmed.Add(1)
		return false
	}
	pl.windowServed += sz
	return true
}

// shedGreediestLocked evicts one live pending entry when the table is
// full: the oldest entry of the greediest peer. Greed is measured in
// live pending entries (the resource being arbitrated), with recovery
// bytes already received as the tie-break. Callers hold n.mu.
func (n *Node) shedGreediestLocked() {
	var victim ident.NodeID
	var best *peerLedger
	for id, pl := range n.ledger {
		if pl.pending == 0 {
			continue
		}
		if best == nil || pl.pending > best.pending ||
			(pl.pending == best.pending && pl.recvB > best.recvB) {
			victim, best = id, pl
		}
	}
	if best == nil {
		// No attributed entries (requests to peers outside the
		// directory): fall back to plain oldest-first.
		n.shedOldestLocked()
		return
	}
	for _, pr := range n.pendingQ {
		if pr.done || pr.from != victim {
			continue
		}
		// The tombstone stays in pendingQ; compaction reclaims it.
		// Entries ahead of it belong to other peers and keep their
		// positions.
		n.dropPendingLocked(pr)
		n.stats.pendingShed.Add(1)
		return
	}
	// Ledger said the victim had live entries but the queue disagrees;
	// resync and shed oldest so the table still shrinks.
	best.pending = 0
	n.shedOldestLocked()
}

// Ledger returns a snapshot of the per-peer recovery-traffic ledger,
// for tests and monitoring.
func (n *Node) Ledger() map[ident.NodeID]PeerLedger {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[ident.NodeID]PeerLedger, len(n.ledger))
	for id, pl := range n.ledger {
		out[id] = PeerLedger{
			BytesSent:        pl.sentB,
			MessagesSent:     pl.sentMsgs,
			BytesReceived:    pl.recvB,
			MessagesReceived: pl.recvMsgs,
			Pending:          pl.pending,
		}
	}
	return out
}
