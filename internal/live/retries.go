package live

import (
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The pending-request table: the driver's record of the push requests
// the core sent. The core requests a missing event once per digest
// (suppressing duplicates for its PendingTTL); over real sockets a
// request or its answer can be lost, so the driver retransmits an
// unanswered request with exponential backoff, abandons it after
// RequestRetries attempts, and bounds the table at MaxPending by
// shedding the greediest peer's oldest entries (ledger.go). Retries are
// one kernel timer, armed at the earliest due entry.

// pendingReq tracks one outstanding recovery Request: who was asked,
// how many times, and when the next retransmission is due.
type pendingReq struct {
	id       ident.EventID
	from     ident.NodeID
	nextAt   sim.Time
	attempts int
	done     bool // answered, abandoned, or shed: queue entry is stale
}

// trackRequestLocked enters the IDs of a request the core sends to
// gossiper into the table. An ID already pending keeps its entry: the
// core re-requested it after its own suppression window, and the
// entry's retry schedule stands. Callers hold the shard lock.
func (n *Node) trackRequestLocked(gossiper ident.NodeID, req *wire.Request) {
	now := n.k.Now()
	for _, id := range req.IDs {
		if _, ok := n.pending.Get(id); ok {
			continue
		}
		for n.pending.Len() >= n.cfg.MaxPending {
			n.shedGreediestLocked()
		}
		pr := &pendingReq{id: id, from: gossiper, attempts: 1, nextAt: now + n.backoffLocked(1)}
		n.pending.Put(id, pr)
		n.pendingQ = append(n.pendingQ, pr)
		if pl := n.peerLedgerLocked(gossiper); pl != nil {
			pl.pending++
		}
		n.armRetryLocked(pr.nextAt)
	}
}

// resolvePendingLocked retires id's entry, if any: its event arrived.
func (n *Node) resolvePendingLocked(id ident.EventID) {
	if pr, ok := n.pending.Get(id); ok {
		n.dropPendingLocked(pr)
	}
}

// dropPendingLocked retires a live entry; its queue slot becomes a
// tombstone that compaction reclaims.
func (n *Node) dropPendingLocked(pr *pendingReq) {
	pr.done = true
	n.pending.Delete(pr.id)
	if pl := n.peerLedgerLocked(pr.from); pl != nil && pl.pending > 0 {
		pl.pending--
	}
}

// shedOldestLocked evicts the oldest live pending entry regardless of
// peer — the fallback when the ledger has no attribution to offer.
// Callers hold the shard lock.
func (n *Node) shedOldestLocked() {
	for len(n.pendingQ) > 0 {
		pr := n.pendingQ[0]
		n.pendingQ[0] = nil
		n.pendingQ = n.pendingQ[1:]
		if pr.done {
			continue // lazily discarded tombstone
		}
		n.dropPendingLocked(pr)
		n.stats.pendingShed.Add(1)
		return
	}
}

// backoffLocked returns the delay before attempt+1: exponential in the
// attempt count with ±25% jitter so synchronized losers do not
// retransmit in lockstep. Callers hold the shard lock (for n.rng).
func (n *Node) backoffLocked(attempts int) sim.Time {
	d := n.cfg.RequestBackoff << uint(attempts-1)
	return d + sim.Time(n.rng.Int63n(int64(d)/2+1)) - d/4
}

// armRetryLocked makes sure the retry timer fires no later than at.
func (n *Node) armRetryLocked(at sim.Time) {
	if n.retryArmed {
		if n.retryAt <= at {
			return
		}
		n.retryTimer.Cancel()
	}
	n.retryArmed, n.retryAt = true, at
	n.retryTimer = n.k.At(at, n.retryDueLocked)
}

// retryDueLocked is the retry timer: it retransmits the overdue
// requests (batched per gossiper, oldest first), abandons entries that
// exhausted their attempts, compacts the queue once tombstones dominate,
// and re-arms for the next due entry. Runs inside the kernel, under
// the shard lock.
func (n *Node) retryDueLocked() {
	n.retryArmed = false
	if len(n.pendingQ) > 2*n.pending.Len()+64 {
		live := n.pendingQ[:0]
		for _, pr := range n.pendingQ {
			if !pr.done {
				live = append(live, pr)
			}
		}
		clear(n.pendingQ[len(live):])
		n.pendingQ = live
	}
	now := n.k.Now()
	var batches []*wire.Request
	var to []ident.NodeID
	next := sim.Time(-1)
	for _, pr := range n.pendingQ {
		if pr.done {
			continue
		}
		if now < pr.nextAt {
			if next < 0 || pr.nextAt < next {
				next = pr.nextAt
			}
			continue
		}
		if pr.attempts >= n.cfg.RequestRetries {
			n.dropPendingLocked(pr)
			n.stats.requestsAbandoned.Add(1)
			continue
		}
		pr.attempts++
		pr.nextAt = now + n.backoffLocked(pr.attempts)
		if next < 0 || pr.nextAt < next {
			next = pr.nextAt
		}
		n.stats.requestsRetried.Add(1)
		i := 0
		for i < len(to) && to[i] != pr.from {
			i++
		}
		if i == len(to) {
			to = append(to, pr.from)
			batches = append(batches, &wire.Request{Requester: n.cfg.ID})
		}
		batches[i].IDs = append(batches[i].IDs, pr.id)
	}
	for i, req := range batches {
		n.ledgerSentLocked(to[i], req.WireSize())
		n.sendOOBLocked(to[i], req)
	}
	if next >= 0 {
		n.armRetryLocked(next)
	}
}
