package live

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/wire"
)

// quotaNode builds a node with k events for pattern 7 in its buffer,
// peers 8 and 9 in its directory and no timers running, so tests can
// drive the recovery serve path through datagrams. It also returns the
// encoded size of one of its events — what the serve quota is charged
// per event.
func quotaNode(t *testing.T, k int, cfg Config) (*Node, int) {
	t.Helper()
	var size int
	cfg.ID = 1
	if cfg.Algorithm == 0 {
		cfg.Algorithm = core.Push
	}
	cfg.GossipInterval = time.Hour
	cfg.OnDeliver = func(ev *wire.Event, _ bool) { size = ev.WireSize() }
	n, _ := testNode(t, cfg, 8, 9)
	n.Subscribe(7)
	for i := 0; i < k; i++ {
		n.Publish(matching.Content{7})
	}
	return n, size
}

// request sends n a push request from requester for ids.
func request(n *Node, requester ident.NodeID, ids []ident.EventID) {
	n.deliverFrom(requester, &wire.Request{Requester: requester, IDs: ids}, true)
}

// TestLedgerQuotaAsymmetricTraffic: a greedy requester is capped at its
// ServeBudget while a modest one is served in full from its own,
// independent budget.
func TestLedgerQuotaAsymmetricTraffic(t *testing.T) {
	n, sz := quotaNode(t, 10, Config{LedgerWindow: time.Hour})
	n.sh.mu.Lock()
	n.cfg.ServeBudget = 3 * sz
	n.sh.mu.Unlock()

	var ids []ident.EventID
	for i := 1; i <= 10; i++ {
		ids = append(ids, ident.EventID{Source: 1, Seq: uint32(i)})
	}
	// Peer 8 wants everything: only 3 events fit its window budget.
	request(n, 8, ids)
	st := n.Stats()
	if st.Served != 3 {
		t.Fatalf("Served = %d, want 3 (budget of 3 events)", st.Served)
	}
	if st.QuotaTrimmed != 7 {
		t.Fatalf("QuotaTrimmed = %d, want 7", st.QuotaTrimmed)
	}
	// Asking again in the same window yields nothing more.
	request(n, 8, ids[:4])
	if got := n.Stats().Served; got != 3 {
		t.Fatalf("Served after repeat request = %d, want 3 (window exhausted)", got)
	}
	// Peer 9's budget is its own: a modest request is served in full.
	request(n, 9, ids[:2])
	if got := n.Stats().Served; got != 5 {
		t.Fatalf("Served = %d, want 5 (peer 9 unaffected by peer 8's greed)", got)
	}

	led := n.Ledger()
	if got := led[8].BytesSent; got != uint64(3*sz) {
		t.Fatalf("ledger[8].BytesSent = %d, want %d", got, 3*sz)
	}
	if got := led[9].BytesSent; got != uint64(2*sz) {
		t.Fatalf("ledger[9].BytesSent = %d, want %d", got, 2*sz)
	}
	if led[8].MessagesReceived != 2 || led[9].MessagesReceived != 1 {
		t.Fatalf("request accounting wrong: %+v / %+v", led[8], led[9])
	}
}

// TestLedgerQuotaWindowRefills: the serve budget is per window, not
// forever — after the window rolls over, the same peer is served again.
func TestLedgerQuotaWindowRefills(t *testing.T) {
	n, sz := quotaNode(t, 4, Config{LedgerWindow: 20 * time.Millisecond})
	n.sh.mu.Lock()
	n.cfg.ServeBudget = 2 * sz
	n.sh.mu.Unlock()

	var ids []ident.EventID
	for i := 1; i <= 4; i++ {
		ids = append(ids, ident.EventID{Source: 1, Seq: uint32(i)})
	}
	request(n, 8, ids)
	if got := n.Stats().Served; got != 2 {
		t.Fatalf("Served = %d, want 2 in the first window", got)
	}
	time.Sleep(30 * time.Millisecond)
	request(n, 8, ids[2:])
	if got := n.Stats().Served; got != 4 {
		t.Fatalf("Served = %d, want 4 after the window refilled", got)
	}
}

// TestLedgerQuotaTrimsGossipServe: on the pull-serve path, events the
// quota cannot cover are left in the remaining set (so another replica
// can serve them) rather than silently dropped.
func TestLedgerQuotaTrimsGossipServe(t *testing.T) {
	n, sz := quotaNode(t, 4, Config{Algorithm: core.SubscriberPull, LedgerWindow: time.Hour, PForward: 1})
	n.sh.mu.Lock()
	n.cfg.ServeBudget = 2 * sz
	n.sh.mu.Unlock()
	// The digest arrives from neighbor 5; neighbor 6 subscribes to 7, so
	// whatever is left of the digest travels on to it.
	n.AddNeighbor(5, fakeAddr(5))
	n.AddNeighbor(6, fakeAddr(6))
	n.deliverFrom(6, &wire.Subscribe{Pattern: 7}, false)
	var wanted []wire.LostEntry
	for i := 1; i <= 4; i++ {
		wanted = append(wanted, wire.LostEntry{Source: 1, Pattern: 7, Seq: uint32(i)})
	}
	rec := n.sh.tr.(*recorder)
	rec.take()
	n.deliverFrom(5, &wire.GossipSubPull{Gossiper: 8, Pattern: 7, Wanted: wanted}, false)
	var outs []*wire.Retransmit
	var remaining []wire.LostEntry
	for _, o := range rec.take() {
		switch m := o.msg.(type) {
		case *wire.Retransmit:
			outs = append(outs, m)
		case *wire.GossipSubPull:
			remaining = m.Wanted
		}
	}
	if len(outs) != 1 {
		t.Fatalf("got %d retransmissions, want 1", len(outs))
	}
	if got := len(outs[0].Events); got != 2 {
		t.Fatalf("retransmit carries %d events, want 2 (quota)", got)
	}
	if len(remaining) != 2 {
		t.Fatalf("remaining = %d entries, want the 2 trimmed ones", len(remaining))
	}
	if got := n.Stats().QuotaTrimmed; got != 2 {
		t.Fatalf("QuotaTrimmed = %d, want 2", got)
	}
}

// TestLedgerIgnoresUnknownPeers: a datagram can name any peer, so the
// ledger accounts only directory members. Ten thousand requests from
// forged requesters, and as many retransmissions from forged
// responders, leave it no larger than the directory — and nothing is
// served to an address the node does not know.
func TestLedgerIgnoresUnknownPeers(t *testing.T) {
	n, _ := quotaNode(t, 4, Config{})
	dirSize := 2 // peers 8 and 9
	ids := []ident.EventID{{Source: 1, Seq: 1}, {Source: 1, Seq: 2}}
	request(n, 8, ids) // a known peer is accounted and served
	for i := 0; i < 10000; i++ {
		forged := ident.NodeID(1000 + i)
		request(n, forged, ids)
		n.deliverFrom(forged, &wire.Retransmit{Responder: forged}, true)
	}
	if got := len(n.Ledger()); got > dirSize {
		t.Fatalf("ledger holds %d peers after forged traffic, want ≤ %d (the directory)", got, dirSize)
	}
	if got := n.Ledger()[8].MessagesReceived; got != 1 {
		t.Fatalf("known peer's request accounted %d times, want 1", got)
	}
	if got := n.Stats().Served; got != 2 {
		t.Fatalf("Served = %d, want 2 (only the known peer's request)", got)
	}
}
