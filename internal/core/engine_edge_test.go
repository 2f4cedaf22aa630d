package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestEvictionKeepsIndicesConsistent: once an event falls out of the
// β-bounded buffer, neither push digests nor pull serving may still
// offer it.
func TestEvictionKeepsIndicesConsistent(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	cfg := deterministicCfg(SubscriberPull)
	cfg.BufferSize = 2 // tiny buffer: the lost event is evicted quickly
	r := newRig(t, topo, subs, cfg)

	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.breakLink(1, 2)
	lost := r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	// Three more events push the lost one out of node 1's buffer
	// (β=2) before node 2 can pull it.
	for i := 0; i < 3; i++ {
		r.nodes[0].Publish(content(5), 0)
	}
	r.run(2 * time.Second)

	if r.has(2, lost.ID) {
		t.Fatal("event recovered although every buffer evicted it")
	}
	// The engines must not have crashed on stale index entries, and
	// node 2's Lost buffer still holds the unrecoverable entry.
	if r.engines[2].LostLen() == 0 {
		t.Fatal("lost entry vanished without recovery")
	}
	if got := r.engines[1].BufferLen(); got > 2 {
		t.Fatalf("buffer holds %d events, capacity 2", got)
	}
}

// TestLostTTLExpiryStopsGossip: entries older than LostTTL stop being
// requested, bounding pull traffic for unrecoverable events.
func TestLostTTLExpiryStopsGossip(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	cfg := deterministicCfg(SubscriberPull)
	cfg.BufferSize = 2
	cfg.LostTTL = 300 * time.Millisecond
	r := newRig(t, topo, subs, cfg)

	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.breakLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	for i := 0; i < 3; i++ {
		r.nodes[0].Publish(content(5), 0) // evict the lost event everywhere
	}
	r.run(2 * time.Second)

	// After the TTL the Lost buffer drains and rounds are skipped.
	if got := r.engines[2].LostLen(); got != 0 {
		t.Fatalf("LostLen = %d after TTL, want 0", got)
	}
	before := r.engines[2].Stats().RoundsStarted
	r.run(time.Second)
	after := r.engines[2].Stats().RoundsStarted
	if after != before {
		t.Fatalf("gossip rounds still started (%d→%d) with nothing recoverable", before, after)
	}
}

// TestPublisherPullStaleRouteDegradesGracefully: when the recorded
// route is severed mid-walk, the gossip message dies at the broken
// link without recovering — and without crashing anything.
func TestPublisherPullStaleRouteDegradesGracefully(t *testing.T) {
	topo := topology.NewLine(4) // 0-1-2-3, subscriber at 3
	subs := [][]ident.PatternID{nil, nil, nil, {5}}
	cfg := deterministicCfg(PublisherPull)
	// A long interval keeps every gossip round after the route is
	// severed below; the test asserts that assumption explicitly.
	cfg.GossipInterval = 10 * time.Second
	r := newRig(t, topo, subs, cfg)
	lost := loseOneEvent(r, 2, 3)
	if n := r.engines[3].Stats().RoundsStarted + r.engines[3].Stats().RoundsSkipped; n != 0 {
		t.Fatalf("a gossip round fired before the route was severed (%d)", n)
	}
	// Permanently break the recorded route (0-1): the walk toward the
	// publisher dies at the missing link, and nobody else caches the
	// event (nodes 1 and 2 are not subscribers).
	r.breakLink(0, 1)
	r.run(40 * time.Second) // several gossip rounds
	if r.has(3, lost.ID) {
		t.Fatal("recovered through a severed route — impossible")
	}
	if r.engines[3].Stats().RoundsStarted == 0 {
		t.Fatal("gossiper never tried")
	}
}

// TestCombinedPullFallsBackAcrossModes: with PSource=1 the combined
// engine still recovers via the subscriber side when no route is
// known.
func TestCombinedPullFallsBackAcrossModes(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	cfg := deterministicCfg(CombinedPull)
	cfg.PSource = 1.0 // always prefer publisher-based...
	r := newRig(t, topo, subs, cfg)

	// Lose the FIRST event at node 2: no prior event from source 0
	// means no recorded route, so the publisher side has nothing to
	// walk and the engine must fall back to subscriber-based pull.
	r.breakLink(1, 2)
	lost := r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("combined pull did not fall back to subscriber-based recovery")
	}
}

// TestPushDigestExcludesOwnedEvents: a subscriber never requests
// events it already has, even when every digest offers them.
func TestPushDigestExcludesOwnedEvents(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(Push))
	for i := 0; i < 5; i++ {
		r.nodes[0].Publish(content(5), 0)
	}
	r.run(2 * time.Second)
	for i, e := range r.engines {
		if got := e.Stats().RequestsSent; got != 0 {
			t.Fatalf("engine %d sent %d requests with nothing missing", i, got)
		}
	}
}

// TestServeAdmissionWithholdsRefusedEvents: an event the admission hook
// refuses is not served; on the pull path its entry stays in the
// remaining set, and a push request simply omits it.
func TestServeAdmissionWithholdsRefusedEvents(t *testing.T) {
	_, e := indexRig(t, 64, cache.FIFOPolicy, 1)
	for seq := 1; seq <= 4; seq++ {
		e.index(&wire.Event{
			ID:      ident.EventID{Source: 3, Seq: uint32(seq)},
			Content: content(5),
			Tags:    []ident.PatternSeq{{Pattern: 5, Seq: uint32(seq)}},
		})
	}
	var asked []ident.EventID
	e.SetServeAdmission(func(to ident.NodeID, ev *wire.Event) bool {
		if to != 1 {
			t.Fatalf("admission asked for peer %v, want node(1)", to)
		}
		asked = append(asked, ev.ID)
		return ev.ID.Seq%2 == 1
	})
	wanted := []wire.LostEntry{le(3, 5, 1), le(3, 5, 2), le(3, 5, 3), le(3, 5, 9)}
	rem := e.serve(1, wanted)
	if want := []wire.LostEntry{le(3, 5, 2), le(3, 5, 9)}; !slices.Equal(rem, want) {
		t.Fatalf("remaining = %v, want %v", rem, want)
	}
	if len(asked) != 3 {
		t.Fatalf("admission asked %d times, want once per buffered event (3)", len(asked))
	}
	if got := e.Stats().RetransmitsServed; got != 2 {
		t.Fatalf("RetransmitsServed = %d after pull serve, want 2", got)
	}
	e.onRequest(&wire.Request{Requester: 1, IDs: []ident.EventID{{Source: 3, Seq: 2}, {Source: 3, Seq: 4}}})
	if got := e.Stats().RetransmitsServed; got != 2 {
		t.Fatalf("RetransmitsServed = %d after a wholly refused request, want 2", got)
	}
}
