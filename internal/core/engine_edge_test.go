package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/network"
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

// sendLog records every message the network carries.
type sendLog struct {
	network.NopObserver
	sent []wire.Message
}

func (l *sendLog) OnSend(_, _ ident.NodeID, msg wire.Message, _ bool) { l.sent = append(l.sent, msg) }

// wantedOf returns the negative digest a pull gossip message carries.
func wantedOf(msg wire.Message) []wire.LostEntry {
	switch m := msg.(type) {
	case *wire.GossipSubPull:
		return m.Wanted
	case *wire.GossipPubPull:
		return m.Wanted
	case *wire.GossipRandom:
		return m.Wanted
	}
	return nil
}

// TestForwardedPullDigestSharesUnservedSlice: a pull digest the relay
// serves nothing from is forwarded as the incoming slice itself, for
// all three pull messages; it reads the same after the relay serves
// again and the Lost buffer it came from changes. A digest the relay
// serves from is forwarded as a copy of the rest.
func TestForwardedPullDigestSharesUnservedSlice(t *testing.T) {
	lb := NewLostBuffer(64, 10*time.Second)
	for q := 1; q <= 4; q++ {
		lb.Add(le(0, 5, q), 0)
	}
	wanted := lb.ForPattern(5, 0)
	for _, tc := range []struct {
		name string
		msg  wire.Message
	}{
		{"subscriber-pull", &wire.GossipSubPull{Gossiper: 0, Pattern: 5, Wanted: wanted}},
		{"publisher-pull", &wire.GossipPubPull{Gossiper: 0, Source: 2, Wanted: wanted, Route: []ident.NodeID{2, 1}, Next: 1}},
		{"random-pull", &wire.GossipRandom{Gossiper: 0, Wanted: wanted}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &sendLog{}
			r := newObservedRig(t, topology.NewLine(3), [][]ident.PatternID{{5}, {5}, {5}}, deterministicCfg(CombinedPull), log)
			relay := r.engines[1]
			relay.HandleRecovery(0, tc.msg, false)
			if len(log.sent) != 1 {
				t.Fatalf("relay sent %d messages, want the forwarded digest only", len(log.sent))
			}
			fwd := wantedOf(log.sent[0])
			if len(fwd) != len(wanted) || &fwd[0] != &wanted[0] {
				t.Fatalf("forwarded digest %v does not share the incoming slice %v", fwd, wanted)
			}
			want := slices.Clone(fwd)
			relay.serve(0, []wire.LostEntry{le(0, 5, 9), le(0, 5, 8)})
			lb.Add(le(0, 5, 5), 0)
			lb.Remove(le(0, 5, 2))
			relay.index(&wire.Event{ID: ident.EventID{Source: 0, Seq: 3}, Content: content(5), Tags: []ident.PatternSeq{{Pattern: 5, Seq: 3}}})
			if !slices.Equal(fwd, want) {
				t.Fatalf("forwarded digest changed to %v, was %v", fwd, want)
			}
			// The relay now holds tag 3: it serves it and forwards a
			// copy of the other entries.
			log.sent = nil
			relay.HandleRecovery(0, tc.msg, false)
			var rest []wire.LostEntry
			for _, msg := range log.sent {
				if w := wantedOf(msg); w != nil {
					rest = w
				}
			}
			if exp := []wire.LostEntry{le(0, 5, 1), le(0, 5, 2), le(0, 5, 4)}; !slices.Equal(rest, exp) {
				t.Fatalf("forwarded %v after serving tag 3, want %v", rest, exp)
			}
			if &rest[0] == &wanted[0] {
				t.Fatal("a partly served digest was forwarded in the incoming slice")
			}
		})
	}
}
