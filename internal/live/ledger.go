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
// recovery capacity by flooding it with requests, starving every other
// peer. The ledger meters serving: each peer gets ServeBudget bytes of
// Retransmit payload per LedgerWindow; events beyond the budget are
// withheld from the response (and, on the gossip-pull path, left in the
// "remaining" set so another replica can serve them). The engine asks
// through its serve-admission hook.
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
}

// peerLedger is the mutable per-peer record, guarded by the shard lock.
type peerLedger struct {
	sentB, sentMsgs uint64
	recvB, recvMsgs uint64
	// windowServed is the Retransmit payload bytes served to this peer
	// in the window ending at windowEnd (kernel time); the quota refills
	// when the window rolls over.
	windowServed int
	windowEnd    sim.Time
}

// peerLedgerLocked returns peer's record, creating it on first use —
// or nil when peer is not in the directory. Callers hold the shard lock.
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
// hold the shard lock.
func (n *Node) ledgerSentLocked(peer ident.NodeID, bytes int) {
	if pl := n.peerLedgerLocked(peer); pl != nil {
		pl.sentB += uint64(bytes)
		pl.sentMsgs++
	}
}

// ledgerRecvLocked records recovery bytes received from peer. Callers
// hold the shard lock.
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
// under the shard lock.
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
		n.stats.QuotaTrimmed++
		return false
	}
	pl.windowServed += sz
	return true
}

// Ledger returns a snapshot of the per-peer recovery-traffic ledger,
// for tests and monitoring.
func (n *Node) Ledger() map[ident.NodeID]PeerLedger {
	n.sh.mu.Lock()
	defer n.sh.mu.Unlock()
	out := make(map[ident.NodeID]PeerLedger, len(n.ledger))
	for id, pl := range n.ledger {
		out[id] = PeerLedger{
			BytesSent:        pl.sentB,
			MessagesSent:     pl.sentMsgs,
			BytesReceived:    pl.recvB,
			MessagesReceived: pl.recvMsgs,
		}
	}
	return out
}
