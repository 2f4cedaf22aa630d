package live

// The hand port: the live node's protocol as it was implemented before
// live.Node became a driver of pubsub.Node + core.Engine — subscription
// forwarding, reverse-path routing and the epidemic recoveries
// re-implemented against real time, with the fairness ledger on top.
// Its handlers are kept here verbatim (only the receiver and a few type
// names changed) as the reference TestSharedCoreMatchesHandPort drives
// the shared core against; they send through a transport, so a test
// records them with a recorder.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestSharedCoreMatchesHandPort drives the live node — pubsub.Node and
// core.Engine behind the driver — and the hand port with the same
// seeded scripts of subscriptions, link changes, publishes, event
// arrivals, digests, requests and retransmissions, and compares after
// every step what each emitted (routed sends with their destination,
// kind, tags and route; subscription propagation; served events and the
// remaining sets forwarded on; push-request IDs), what each delivered,
// and what each detected as lost. PForward is 1 and no timer fires, so
// both sides are deterministic.
//
// The intended differences are listed here and nowhere else:
//
//   - NoRecovery nodes no longer buffer or serve: the shared core
//     installs no engine, so the hand port's retransmissions and
//     forwarded digests have no counterpart (its scripts carry no
//     retransmissions, which a NoRecovery node now ignores too).
//   - Random-pull walks are forwarded: the core serves a GossipRandom
//     and walks the remaining set on to a random neighbor other than the
//     sender and the gossiper; the hand port only served it.
//   - Duplicate push requests are suppressed by the core's pending
//     table, for PendingTTL, where the hand port suppressed an ID for as
//     long as its retry entry lived: the core may re-request an ID the
//     hand port still has pending.
//   - The live node keeps no retry table of its own: the hand port's
//     retries, abandonment and greediest-first shedding have no
//     counterpart, so the sizes of the two pending tables are not
//     compared.
func TestSharedCoreMatchesHandPort(t *testing.T) {
	for _, alg := range []core.Algorithm{core.NoRecovery, core.Push, core.SubscriberPull, core.PublisherPull, core.CombinedPull, core.RandomPull} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/%d", alg, seed), func(t *testing.T) {
				compareWithHandPort(t, alg, seed)
			})
		}
	}
}

// scriptPeers are the directory of a scripted node (ID 1): neighbors 2–4
// at the start, and 5–7 reachable only out of band.
var scriptPeers = []ident.NodeID{2, 3, 4, 5, 6, 7}

func compareWithHandPort(t *testing.T, alg core.Algorithm, seed int64) {
	cfg := Config{
		ID:             1,
		Algorithm:      alg,
		GossipInterval: time.Hour,
		PForward:       1,
		BufferSize:     24, // small enough for scripts to evict
		ServeBudget:    400,
		LedgerWindow:   time.Hour,
	}
	type delivered struct {
		id        ident.EventID
		recovered bool
	}
	var coreDel, handDel []delivered
	cfg.OnDeliver = func(ev *wire.Event, r bool) { coreDel = append(coreDel, delivered{ev.ID, r}) }
	n, rec := testNode(t, cfg, scriptPeers...)
	hcfg := n.cfg
	hcfg.OnDeliver = func(ev *wire.Event, r bool) { handDel = append(handDel, delivered{ev.ID, r}) }
	hrec := &recorder{}
	h := newHandPort(hcfg, hrec)
	for _, p := range scriptPeers {
		h.directory[p] = toAddrPort(fakeAddr(p))
	}

	s := newScript(alg, seed)
	for step := 0; step < 400; step++ {
		act := s.next(n)
		act.apply(n, h)
		coreOut, handOut := rec.take(), hrec.take()
		where := fmt.Sprintf("step %d (%s)", step, act.name)

		// NoRecovery runs no recovery at all (first difference).
		if alg == core.NoRecovery {
			handOut = slices.DeleteFunc(handOut, func(o out) bool { return isRecovery(o.msg) })
			for _, o := range coreOut {
				if isRecovery(o.msg) {
					t.Fatalf("%s: a NoRecovery node sent %s", where, describe(o))
				}
			}
		}
		// Random walks continue in the core only (second difference).
		coreOut = slices.DeleteFunc(coreOut, func(o out) bool {
			m, ok := o.msg.(*wire.GossipRandom)
			if !ok {
				return false
			}
			if _, nb := n.neighbors[o.to]; !nb || o.to == act.from || o.to == m.Gossiper {
				t.Fatalf("%s: random walk continued to %v (from %v, gossiper %v)", where, o.to, act.from, m.Gossiper)
			}
			return true
		})
		// Push requests: the core may repeat an ID the hand port has
		// pending (third difference); otherwise the same IDs go to the
		// same gossipers.
		coreReq, coreOut := splitRequests(coreOut)
		handReq, handOut := splitRequests(handOut)
		for to, ids := range handReq {
			for id := range ids {
				if !coreReq[to][id] {
					t.Fatalf("%s: hand port requested %v from %v, the core did not", where, id, to)
				}
			}
		}
		for to, ids := range coreReq {
			for id := range ids {
				if !handReq[to][id] && h.pending[id] == nil {
					t.Fatalf("%s: core requested %v from %v, which the hand port neither requested nor has pending", where, id, to)
				}
			}
		}
		if c, h := describeAll(coreOut), describeAll(handOut); !slices.Equal(c, h) {
			t.Fatalf("%s: sends differ\n core: %q\n hand: %q", where, c, h)
		}
		if !slices.Equal(coreDel, handDel) {
			t.Fatalf("%s: deliveries differ\n core: %v\n hand: %v", where, coreDel, handDel)
		}
		cs := n.Stats()
		if cs.LossesDetected != h.stats.lossesDetected.Load() {
			t.Fatalf("%s: losses detected %d, hand port %d", where, cs.LossesDetected, h.stats.lossesDetected.Load())
		}
		if n.eng != nil && n.eng.LostLen() != h.lost.Len() {
			t.Fatalf("%s: Lost buffer holds %d, hand port %d", where, n.eng.LostLen(), h.lost.Len())
		}
		if alg != core.NoRecovery {
			if cs.Served != h.stats.served.Load() || cs.QuotaTrimmed != h.stats.quotaTrimmed.Load() {
				t.Fatalf("%s: served %d (trimmed %d), hand port %d (%d)", where,
					cs.Served, cs.QuotaTrimmed, h.stats.served.Load(), h.stats.quotaTrimmed.Load())
			}
		}
		if got, want := n.KnownPatternCount(), h.knownPatternCount(); got != want {
			t.Fatalf("%s: %d known patterns, hand port %d", where, got, want)
		}
	}
	if len(coreDel) == 0 || (alg != core.NoRecovery && n.Stats().Served == 0) {
		t.Fatalf("script too tame: %d deliveries, %d served", len(coreDel), n.Stats().Served)
	}
}

// splitRequests separates the push requests from the other sends,
// indexed by destination.
func splitRequests(outs []out) (map[ident.NodeID]map[ident.EventID]bool, []out) {
	reqs := map[ident.NodeID]map[ident.EventID]bool{}
	rest := outs[:0]
	for _, o := range outs {
		m, ok := o.msg.(*wire.Request)
		if !ok {
			rest = append(rest, o)
			continue
		}
		if reqs[o.to] == nil {
			reqs[o.to] = map[ident.EventID]bool{}
		}
		for _, id := range m.IDs {
			reqs[o.to][id] = true
		}
	}
	return reqs, rest
}

func isRecovery(msg wire.Message) bool {
	return msg != nil && (msg.Kind().IsGossip() || msg.Kind() == wire.KindRetransmit)
}

// knownPatternCount is the hand port's count of patterns with local or
// remote interest.
func (n *handPort) knownPatternCount() int {
	known := len(n.table)
	for p := range n.local {
		if len(n.table[p]) == 0 {
			known++
		}
	}
	return known
}

// script generates the seeded actions both implementations replay. It
// plays the rest of the network: the node's neighbors, co-subscribers
// and publishers (sources 2, 3, 5 and 6), numbering every event it
// invents the way a real source would, and withholding some so that
// arrivals reveal gaps.
type script struct {
	alg      core.Algorithm
	rng      *rand.Rand
	seq      map[ident.NodeID]uint32
	tagSeq   map[srcPattern]uint32
	events   []*wire.Event // every event invented, in order
	withheld []*wire.Event // events some tree arrival skipped
	own      []ident.EventID
}

// action is one scripted step: what to do to either implementation.
type action struct {
	name string
	from ident.NodeID // sender of msg
	node func(n *Node)
	hand func(h *handPort)
	msg  wire.Message
	oob  bool
}

func (a action) apply(n *Node, h *handPort) {
	if a.msg != nil {
		n.deliverFrom(a.from, a.msg, a.oob)
		h.handle(a.from, a.msg, a.oob)
		return
	}
	a.node(n)
	a.hand(h)
}

var scriptPatterns = []ident.PatternID{7, 8, 9}

func newScript(alg core.Algorithm, seed int64) *script {
	return &script{
		alg:    alg,
		rng:    rand.New(rand.NewSource(seed)),
		seq:    map[ident.NodeID]uint32{},
		tagSeq: map[srcPattern]uint32{},
	}
}

func (s *script) pattern() ident.PatternID { return scriptPatterns[s.rng.Intn(len(scriptPatterns))] }

func (s *script) peer(ids ...ident.NodeID) ident.NodeID { return ids[s.rng.Intn(len(ids))] }

// neighbor returns a current neighbor of n, or ident.None.
func (s *script) neighbor(n *Node) ident.NodeID {
	var nbs []ident.NodeID
	for _, id := range []ident.NodeID{2, 3, 4} {
		if _, ok := n.neighbors[id]; ok {
			nbs = append(nbs, id)
		}
	}
	if len(nbs) == 0 {
		return ident.None
	}
	return s.peer(nbs...)
}

// invent stamps a new event at a source, as the source would.
func (s *script) invent(src, via ident.NodeID) *wire.Event {
	s.seq[src]++
	ev := &wire.Event{ID: ident.EventID{Source: src, Seq: s.seq[src]}}
	ev.Content = matching.Content{s.pattern()}
	if q := s.pattern(); q != ev.Content[0] && s.rng.Intn(3) == 0 {
		ev.Content = append(ev.Content, q)
	}
	for _, p := range ev.Content {
		k := srcPattern{src, p}
		s.tagSeq[k]++
		ev.Tags = append(ev.Tags, ident.PatternSeq{Pattern: p, Seq: s.tagSeq[k]})
	}
	if s.alg.NeedsRoutes() {
		ev.Route = []ident.NodeID{src}
		if via != src {
			ev.Route = append(ev.Route, via)
		}
	}
	s.events = append(s.events, ev)
	return ev
}

// wanted draws a negative digest: tags of invented events (held by the
// node or not), plus one nobody has.
func (s *script) wanted(keep func(wire.LostEntry) bool) []wire.LostEntry {
	var w []wire.LostEntry
	for i := 0; i < 1+s.rng.Intn(5) && len(s.events) > 0; i++ {
		ev := s.events[s.rng.Intn(len(s.events))]
		t := ev.Tags[s.rng.Intn(len(ev.Tags))]
		e := wire.LostEntry{Source: ev.ID.Source, Pattern: t.Pattern, Seq: t.Seq}
		if keep(e) && !slices.Contains(w, e) {
			w = append(w, e)
		}
	}
	w = append(w, wire.LostEntry{Source: 5, Pattern: 9, Seq: 1 << 20})
	slices.SortFunc(w, func(a, b wire.LostEntry) int {
		return cmp.Or(cmp.Compare(a.Pattern, b.Pattern), cmp.Compare(a.Source, b.Source), cmp.Compare(a.Seq, b.Seq))
	})
	return w
}

func (s *script) next(n *Node) action {
	nb := s.neighbor(n)
	pullKinds := s.alg != core.Push
	for {
		switch r := s.rng.Intn(100); {
		case r < 5:
			p := s.pattern()
			if s.rng.Intn(3) == 0 {
				return action{name: "unsubscribe", node: func(n *Node) { n.Unsubscribe(p) }, hand: func(h *handPort) { h.Unsubscribe(p) }}
			}
			return action{name: "subscribe", node: func(n *Node) { n.Subscribe(p) }, hand: func(h *handPort) { h.Subscribe(p) }}
		case r < 10:
			if nb == ident.None {
				continue
			}
			p := s.pattern()
			if s.rng.Intn(3) == 0 {
				return action{name: "neighbor unsubscribe", from: nb, msg: &wire.Unsubscribe{Pattern: p}}
			}
			return action{name: "neighbor subscribe", from: nb, msg: &wire.Subscribe{Pattern: p}}
		case r < 13:
			id := s.peer(2, 3, 4)
			if _, up := n.neighbors[id]; up {
				return action{name: "link down", node: func(n *Node) { n.RemoveNeighbor(id) }, hand: func(h *handPort) { h.RemoveNeighbor(id) }}
			}
			return action{name: "link up", node: func(n *Node) { n.AddNeighbor(id, fakeAddr(id)) }, hand: func(h *handPort) { h.AddNeighbor(id, fakeAddr(id)) }}
		case r < 20:
			c := matching.Content{s.pattern()}
			return action{name: "publish", node: func(n *Node) { s.own = append(s.own, n.Publish(c)) }, hand: func(h *handPort) { h.Publish(c) }}
		case r < 50:
			if nb == ident.None {
				continue
			}
			if len(s.events) > 0 && s.rng.Intn(8) == 0 {
				ev := s.events[s.rng.Intn(len(s.events))]
				return action{name: "duplicate event", from: nb, msg: ev}
			}
			ev := s.invent(s.peer(2, 3, 5, 6), nb)
			if s.rng.Intn(4) == 0 {
				s.withheld = append(s.withheld, ev)
				ev = s.invent(ev.ID.Source, nb) // the next one reveals the gap
			}
			return action{name: "event", from: nb, msg: ev}
		case r < 60:
			if nb == ident.None || len(s.events) == 0 {
				continue
			}
			var digest []ident.EventID
			for i := 0; i < 1+s.rng.Intn(4); i++ {
				id := s.events[s.rng.Intn(len(s.events))].ID
				if !slices.Contains(digest, id) {
					digest = append(digest, id)
				}
			}
			slices.SortFunc(digest, func(a, b ident.EventID) int { return cmp.Compare(idOrder(a), idOrder(b)) })
			g := s.peer(nb, 5, 6)
			return action{name: "push digest", from: nb, msg: &wire.GossipPush{Gossiper: g, Pattern: s.pattern(), Digest: digest}}
		case r < 68:
			if !pullKinds || nb == ident.None {
				continue
			}
			p := s.pattern()
			w := s.wanted(func(e wire.LostEntry) bool { return e.Pattern == p })
			return action{name: "subpull digest", from: nb, msg: &wire.GossipSubPull{Gossiper: s.peer(5, 6, 7, 1), Pattern: p, Wanted: w}}
		case r < 74:
			if !pullKinds || nb == ident.None {
				continue
			}
			src := s.peer(2, 3, 5, 6)
			w := s.wanted(func(e wire.LostEntry) bool { return e.Source == src })
			route := []ident.NodeID{src, s.peer(2, 3, 4, 5), 1, nb}
			return action{name: "pubpull digest", from: nb, msg: &wire.GossipPubPull{Gossiper: s.peer(5, 6, 7), Source: src, Wanted: w, Route: route, Next: 2}}
		case r < 78:
			if !pullKinds || nb == ident.None {
				continue
			}
			w := s.wanted(func(wire.LostEntry) bool { return true })
			return action{name: "random digest", from: nb, msg: &wire.GossipRandom{Gossiper: s.peer(5, 6, 7), Wanted: w}}
		case r < 88:
			var ids []ident.EventID
			for i := 0; i < 1+s.rng.Intn(4); i++ {
				if len(s.own) > 0 && s.rng.Intn(2) == 0 {
					ids = append(ids, s.own[s.rng.Intn(len(s.own))])
				} else if len(s.events) > 0 {
					ids = append(ids, s.events[s.rng.Intn(len(s.events))].ID)
				}
			}
			req := s.peer(2, 5, 6, 7)
			return action{name: "request", from: req, msg: &wire.Request{Requester: req, IDs: ids}, oob: true}
		default:
			if s.alg == core.NoRecovery || len(s.events) == 0 {
				continue
			}
			var evs []*wire.Event
			for i := 0; i < 1+s.rng.Intn(3); i++ {
				pool := s.events
				if len(s.withheld) > 0 && s.rng.Intn(2) == 0 {
					pool = s.withheld
				}
				evs = append(evs, pool[s.rng.Intn(len(pool))])
			}
			resp := s.peer(2, 5, 6, 7)
			return action{name: "retransmit", from: resp, msg: &wire.Retransmit{Responder: resp, Events: evs}, oob: true}
		}
	}
}

// idOrder is EventID.Less as one integer, for sorting digests.
func idOrder(id ident.EventID) uint64 { return uint64(uint32(id.Source)^1<<31)<<32 | uint64(id.Seq) }

// handPort is one hand-ported live dispatcher.
type handPort struct {
	cfg   Config
	tr    transport
	start time.Time

	mu        sync.Mutex
	rng       *rand.Rand
	neighbors map[ident.NodeID]netip.AddrPort
	directory map[ident.NodeID]netip.AddrPort
	local     map[ident.PatternID]bool
	localSet  ident.PatternSet // in-range mirror of local; event-path fast match
	table     map[ident.PatternID][]ident.NodeID
	nextSeq   uint32
	patSeq    map[ident.PatternID]uint32
	received  *eventIDSet

	buf      *cache.Cache
	patIdx   map[ident.PatternID]*eventIDSet
	tagIdx   map[wire.LostEntry]ident.EventID
	lost     *core.LostBuffer
	high     map[srcPattern]uint32
	routes   map[ident.NodeID][]ident.NodeID
	pending  map[ident.EventID]*handPendingReq
	pendingQ []*handPendingReq // FIFO shadow of pending, oldest first
	ledger   handLedger        // per-peer recovery-traffic accounting

	peerMu sync.Mutex
	peers  map[ident.NodeID]*peerState

	stats handCounters
}

// peerState is the failure detector's per-neighbor record, guarded by
// peerMu.
type peerState struct {
	lastSeen  time.Duration // n.now() of the neighbor's last datagram
	suspected bool
}

// handCounters are the hand port's counters.
type handCounters struct {
	published, delivered, recovered, lossesDetected atomic.Uint64
	gossipSent, eventsSent, served, droppedInject   atomic.Uint64
	requestsRetried, requestsAbandoned, pendingShed atomic.Uint64
	quotaTrimmed                                    atomic.Uint64
}

// The hand port's retry-table settings: the live node's defaults when
// it still had the table, except the backoff, which keeps every retry
// out of a script's way.
const (
	handMaxPending     = 4096
	handRequestBackoff = time.Hour
	handRequestRetries = 4
)

type srcPattern struct {
	src ident.NodeID
	pat ident.PatternID
}

// newHandPort builds a hand-ported node; cfg must already be
// normalized.
func newHandPort(cfg Config, tr transport) *handPort {
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, 'l', int64(cfg.ID))))
	n := &handPort{
		cfg:       cfg,
		tr:        tr,
		start:     start,
		rng:       rng,
		neighbors: make(map[ident.NodeID]netip.AddrPort),
		directory: make(map[ident.NodeID]netip.AddrPort),
		local:     make(map[ident.PatternID]bool),
		table:     make(map[ident.PatternID][]ident.NodeID),
		patSeq:    make(map[ident.PatternID]uint32),
		received:  newEventIDSet(64),
		buf:       cache.New(cfg.BufferSize, cache.FIFOPolicy, nil),
		patIdx:    make(map[ident.PatternID]*eventIDSet),
		tagIdx:    make(map[wire.LostEntry]ident.EventID),
		lost:      core.NewLostBuffer(cfg.LostCapacity, cfg.LostTTL),
		high:      make(map[srcPattern]uint32),
		routes:    make(map[ident.NodeID][]ident.NodeID),
		pending:   make(map[ident.EventID]*handPendingReq),
		peers:     make(map[ident.NodeID]*peerState),
	}
	n.ledger.init()
	n.buf.SetOnEvict(n.unindexLocked)
	return n
}

// eventIDSet is the map-backed event-identifier set the hand port kept
// its received set and push index in, with a cached sorted snapshot.
type eventIDSet struct {
	m    map[ident.EventID]struct{}
	snap []ident.EventID // cached Sorted() result; nil when stale
}

func newEventIDSet(n int) *eventIDSet {
	return &eventIDSet{m: make(map[ident.EventID]struct{}, n)}
}

func (s *eventIDSet) Add(id ident.EventID) bool {
	if _, ok := s.m[id]; ok {
		return false
	}
	s.m[id] = struct{}{}
	s.snap = nil
	return true
}

func (s *eventIDSet) Has(id ident.EventID) bool {
	_, ok := s.m[id]
	return ok
}

func (s *eventIDSet) Remove(id ident.EventID) bool {
	if _, ok := s.m[id]; !ok {
		return false
	}
	delete(s.m, id)
	s.snap = nil
	return true
}

func (s *eventIDSet) Len() int { return len(s.m) }

func (s *eventIDSet) Sorted() []ident.EventID {
	if s.snap == nil {
		out := make([]ident.EventID, 0, len(s.m))
		for id := range s.m {
			out = append(out, id)
		}
		slices.SortFunc(out, func(a, b ident.EventID) int {
			switch {
			case a.Less(b):
				return -1
			case b.Less(a):
				return 1
			default:
				return 0
			}
		})
		s.snap = out
	}
	return s.snap
}

// handPendingReq tracks one outstanding recovery Request issued after a
// push digest revealed a missing event: who was asked, how many times,
// and when the next retransmission is due.
type handPendingReq struct {
	id       ident.EventID
	from     ident.NodeID
	nextAt   time.Time
	attempts int
	done     bool // answered, abandoned, or shed: queue entry is stale
}

// handPeerLedger is the mutable per-peer record, guarded by n.mu like the
// pending table it arbitrates.
type handPeerLedger struct {
	sentB, sentMsgs uint64
	recvB, recvMsgs uint64
	pending         int
	// windowServed is the Retransmit payload bytes served to this peer
	// since windowStart; the quota refills when the window rolls over.
	windowServed int
	windowStart  time.Time
}

// ledger maps peers to their accounting records.
type handLedger struct {
	peers map[ident.NodeID]*handPeerLedger
}

func (l *handLedger) init() {
	l.peers = make(map[ident.NodeID]*handPeerLedger)
}

func (l *handLedger) peer(id ident.NodeID) *handPeerLedger {
	pl, ok := l.peers[id]
	if !ok {
		pl = &handPeerLedger{}
		l.peers[id] = pl
	}
	return pl
}

// AddNeighbor attaches a tree link toward the given dispatcher and
// advertises every known interest over it, exactly as OnLinkUp does in
// the simulator.
func (n *handPort) AddNeighbor(id ident.NodeID, addr *net.UDPAddr) {
	ap := toAddrPort(addr)
	n.mu.Lock()
	n.neighbors[id] = ap
	n.directory[id] = ap
	var subs []ident.PatternID
	for p := range n.local {
		subs = append(subs, p)
	}
	for p := range n.table {
		if !n.local[p] && n.advertisedToLocked(p, id) {
			subs = append(subs, p)
		}
	}
	n.mu.Unlock()
	n.peerMu.Lock()
	n.peers[id] = &peerState{lastSeen: time.Since(n.start)} // grace period before the detector may suspect
	n.peerMu.Unlock()
	for _, p := range subs {
		n.sendTree(id, &wire.Subscribe{Pattern: p})
	}
}

// RemoveNeighbor detaches a tree link and flushes every route through
// it (OnLinkDown).
func (n *handPort) RemoveNeighbor(id ident.NodeID) {
	n.mu.Lock()
	delete(n.neighbors, id)
	var stale []ident.PatternID
	for p, dirs := range n.table {
		for _, d := range dirs {
			if d == id {
				stale = append(stale, p)
				break
			}
		}
	}
	n.mu.Unlock()
	n.peerMu.Lock()
	delete(n.peers, id)
	n.peerMu.Unlock()
	for _, p := range stale {
		n.mu.Lock()
		outs := n.removeInterestLocked(p, id)
		n.mu.Unlock()
		n.flush(outs)
	}
}

// now returns the node's monotonic clock as a duration since start,
// the time base of the Lost buffer.
func (n *handPort) now() time.Duration { return time.Since(n.start) }

// sendTree transmits msg to a direct neighbor, subject to injected
// loss. Subscription control messages are exempt: in a real deployment
// the control plane rides a reliable transport (TCP), while events and
// gossip are the best-effort data plane the paper studies.
func (n *handPort) sendTree(to ident.NodeID, msg wire.Message) {
	kind := msg.Kind()
	control := kind == wire.KindSubscribe || kind == wire.KindUnsubscribe
	n.mu.Lock()
	addr, ok := n.neighbors[to]
	drop := !control && n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb
	n.mu.Unlock()
	if !ok {
		return
	}
	if drop {
		n.stats.droppedInject.Add(1)
		return
	}
	if kind.IsGossip() {
		n.stats.gossipSent.Add(1)
	} else if kind == wire.KindEvent {
		n.stats.eventsSent.Add(1)
	}
	n.tr.send(out{from: n.cfg.ID, to: to, addr: addr, msg: msg})
}

// sendOOB transmits msg to any dispatcher in the directory.
func (n *handPort) sendOOB(to ident.NodeID, msg wire.Message) {
	n.mu.Lock()
	addr, ok := n.directory[to]
	n.mu.Unlock()
	if !ok {
		return
	}
	if kind := msg.Kind(); kind.IsGossip() {
		n.stats.gossipSent.Add(1)
	} else if kind == wire.KindRetransmit {
		n.stats.eventsSent.Add(uint64(len(msg.(*wire.Retransmit).Events)))
	}
	n.tr.send(out{from: n.cfg.ID, to: to, addr: addr, msg: msg, oob: true})
}

// isSuspect reports whether the failure detector currently suspects
// id. Safe to call with mu held (peerMu is a leaf lock).
func (n *handPort) isSuspect(id ident.NodeID) bool {
	if n.cfg.HeartbeatInterval == 0 {
		return false
	}
	n.peerMu.Lock()
	ps, ok := n.peers[id]
	s := ok && ps.suspected
	n.peerMu.Unlock()
	return s
}

// flush transmits the messages collected under the lock.
func (n *handPort) flush(outs []out) {
	for _, o := range outs {
		if o.oob {
			n.sendOOB(o.to, o.msg)
		} else {
			n.sendTree(o.to, o.msg)
		}
	}
}

// Subscribe registers a local subscription and propagates it through
// the tree (subscription forwarding, paper Sec. II).
func (n *handPort) Subscribe(p ident.PatternID) {
	n.mu.Lock()
	var outs []out
	if !n.local[p] {
		for nb := range n.neighbors {
			if !n.advertisedToLocked(p, nb) {
				outs = append(outs, out{to: nb, msg: &wire.Subscribe{Pattern: p}})
			}
		}
		n.local[p] = true
		n.localSet.Add(p)
	}
	n.mu.Unlock()
	n.flush(outs)
}

// Unsubscribe removes a local subscription and propagates the removal.
func (n *handPort) Unsubscribe(p ident.PatternID) {
	n.mu.Lock()
	var outs []out
	if n.local[p] {
		delete(n.local, p)
		n.localSet.Remove(p)
		for nb := range n.neighbors {
			if !n.advertisedToLocked(p, nb) {
				outs = append(outs, out{to: nb, msg: &wire.Unsubscribe{Pattern: p}})
			}
		}
	}
	n.mu.Unlock()
	n.flush(outs)
}

// advertisedToLocked reports whether p has been (or would be)
// advertised toward nb. Callers hold n.mu.
func (n *handPort) advertisedToLocked(p ident.PatternID, nb ident.NodeID) bool {
	if n.local[p] {
		return true
	}
	for _, d := range n.table[p] {
		if d != nb {
			return true
		}
	}
	return false
}

// addInterestLocked records neighbor interest and returns the
// subscriptions to re-propagate. Callers hold n.mu.
func (n *handPort) addInterestLocked(p ident.PatternID, from ident.NodeID) []out {
	for _, d := range n.table[p] {
		if d == from {
			return nil
		}
	}
	var outs []out
	for nb := range n.neighbors {
		if nb != from && !n.advertisedToLocked(p, nb) {
			outs = append(outs, out{to: nb, msg: &wire.Subscribe{Pattern: p}})
		}
	}
	n.table[p] = append(n.table[p], from)
	return outs
}

// removeInterestLocked drops neighbor interest and returns the
// unsubscriptions to propagate. Callers hold n.mu.
func (n *handPort) removeInterestLocked(p ident.PatternID, from ident.NodeID) []out {
	dirs := n.table[p]
	found := false
	for i, d := range dirs {
		if d == from {
			n.table[p] = append(dirs[:i], dirs[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	if len(n.table[p]) == 0 {
		delete(n.table, p)
	}
	var outs []out
	for nb := range n.neighbors {
		if nb != from && !n.advertisedToLocked(p, nb) {
			outs = append(outs, out{to: nb, msg: &wire.Unsubscribe{Pattern: p}})
		}
	}
	return outs
}

// Publish stamps and routes a new event, returning its identifier.
func (n *handPort) Publish(content matching.Content) ident.EventID {
	n.mu.Lock()
	n.nextSeq++
	ev := &wire.Event{
		ID:          ident.EventID{Source: n.cfg.ID, Seq: n.nextSeq},
		Content:     content,
		PublishedAt: int64(n.now()),
	}
	for _, p := range content {
		if n.local[p] || len(n.table[p]) > 0 {
			n.patSeq[p]++
			ev.Tags = append(ev.Tags, ident.PatternSeq{Pattern: p, Seq: n.patSeq[p]})
		}
	}
	if n.cfg.Algorithm.NeedsRoutes() {
		ev.Route = []ident.NodeID{n.cfg.ID}
	}
	n.stats.published.Add(1)
	n.received.Add(ev.ID)
	n.indexLocked(ev)
	selfDeliver := n.localMatchLocked(content)
	if selfDeliver {
		n.stats.delivered.Add(1)
	}
	outs := n.forwardLocked(ev, ident.None)
	cb := n.cfg.OnDeliver
	n.mu.Unlock()

	if selfDeliver && cb != nil {
		cb(ev, false)
	}
	n.flush(outs)
	return ev.ID
}

// localMatchLocked reports whether the content matches a local
// subscription. The tiered bitset answers for every pattern
// identifier — the inline tier covers the paper universe, the spill
// tier anything beyond it — so the event path never probes the map.
// Callers hold n.mu.
func (n *handPort) localMatchLocked(c matching.Content) bool {
	for _, p := range c {
		if n.localSet.Has(p) {
			return true
		}
	}
	return false
}

// forwardLocked routes ev to every neighbor with matching interest
// except from. Callers hold n.mu.
func (n *handPort) forwardLocked(ev *wire.Event, from ident.NodeID) []out {
	sent := make(map[ident.NodeID]bool, 4)
	var outs []out
	for _, p := range ev.Content {
		for _, nb := range n.table[p] {
			if nb == from || sent[nb] {
				continue
			}
			sent[nb] = true
			fwd := ev
			if n.cfg.Algorithm.NeedsRoutes() && from != ident.None {
				fwd = ev.Clone()
				fwd.Route = append(fwd.Route, n.cfg.ID)
			}
			outs = append(outs, out{to: nb, msg: fwd})
		}
	}
	return outs
}

// handle dispatches one received message.
func (n *handPort) handle(from ident.NodeID, msg wire.Message, oob bool) {
	switch m := msg.(type) {
	case *wire.Event:
		n.handleEvent(m, from)
	case *wire.Subscribe:
		n.mu.Lock()
		outs := n.addInterestLocked(m.Pattern, from)
		n.mu.Unlock()
		n.flush(outs)
	case *wire.Unsubscribe:
		n.mu.Lock()
		outs := n.removeInterestLocked(m.Pattern, from)
		n.mu.Unlock()
		n.flush(outs)
	default:
		n.handleRecovery(from, msg, oob)
	}
}

func (n *handPort) handleEvent(ev *wire.Event, from ident.NodeID) {
	n.mu.Lock()
	deliver := n.localMatchLocked(ev.Content) && n.received.Add(ev.ID)
	if deliver {
		n.stats.delivered.Add(1)
		n.indexLocked(ev)
		if n.cfg.Algorithm.NeedsSeqTags() {
			n.detectLocked(ev)
		}
		if n.cfg.Algorithm.NeedsRoutes() && len(ev.Route) > 0 {
			n.routes[ev.ID.Source] = ev.Route
		}
	}
	outs := n.forwardLocked(ev, from)
	cb := n.cfg.OnDeliver
	n.mu.Unlock()

	if deliver && cb != nil {
		cb(ev, false)
	}
	n.flush(outs)
}

// indexLocked buffers ev and maintains the pattern and tag indices.
// Callers hold n.mu.
func (n *handPort) indexLocked(ev *wire.Event) {
	if n.buf.Has(ev.ID) {
		return
	}
	n.buf.Put(ev)
	for _, p := range ev.Content {
		set, ok := n.patIdx[p]
		if !ok {
			set = newEventIDSet(8)
			n.patIdx[p] = set
		}
		set.Add(ev.ID)
	}
	for _, t := range ev.Tags {
		n.tagIdx[wire.LostEntry{Source: ev.ID.Source, Pattern: t.Pattern, Seq: t.Seq}] = ev.ID
	}
}

// unindexLocked is the cache eviction callback; the cache is only
// touched under n.mu, so the callback runs under it too.
func (n *handPort) unindexLocked(ev *wire.Event) {
	for _, p := range ev.Content {
		if set, ok := n.patIdx[p]; ok {
			set.Remove(ev.ID)
		}
	}
	for _, t := range ev.Tags {
		delete(n.tagIdx, wire.LostEntry{Source: ev.ID.Source, Pattern: t.Pattern, Seq: t.Seq})
	}
}

// detectLocked runs sequence-gap loss detection. Callers hold n.mu.
func (n *handPort) detectLocked(ev *wire.Event) {
	now := n.now()
	for _, tag := range ev.Tags {
		if !n.local[tag.Pattern] {
			continue
		}
		key := srcPattern{src: ev.ID.Source, pat: tag.Pattern}
		high := n.high[key]
		if tag.Seq > high {
			for q := high + 1; q < tag.Seq; q++ {
				n.lost.Add(wire.LostEntry{Source: ev.ID.Source, Pattern: tag.Pattern, Seq: q}, now)
				n.stats.lossesDetected.Add(1)
			}
			n.high[key] = tag.Seq
		} else {
			n.lost.Remove(wire.LostEntry{Source: ev.ID.Source, Pattern: tag.Pattern, Seq: tag.Seq})
		}
	}
}

// gossipRound starts one gossip round (called from the gossip loop).
func (n *handPort) gossipRound() {
	n.mu.Lock()
	var outs []out
	switch {
	case n.cfg.Algorithm.NeedsSeqTags() && n.cfg.Algorithm.NeedsRoutes():
		// Combined or publisher-based pull.
		if n.rng.Float64() < n.cfg.PSource {
			outs = n.gossipPubPullLocked()
			if outs == nil {
				outs = n.gossipSubPullLocked()
			}
		} else {
			outs = n.gossipSubPullLocked()
			if outs == nil {
				outs = n.gossipPubPullLocked()
			}
		}
	case n.cfg.Algorithm.NeedsSeqTags():
		outs = n.gossipSubPullLocked()
	default:
		outs = n.gossipPushLocked()
	}
	outs = append(outs, n.retryPendingLocked()...)
	n.mu.Unlock()
	n.flush(outs)
}

// forwardPatternLocked picks the thinned neighbor set a pattern-routed
// gossip message goes to. Neighbors the failure detector suspects are
// skipped: gossip to a dead peer is a wasted transmission. Callers
// hold n.mu.
func (n *handPort) forwardPatternLocked(msg wire.Message, p ident.PatternID, from ident.NodeID) []out {
	var outs []out
	for _, nb := range n.table[p] {
		if nb == from || n.isSuspect(nb) {
			continue
		}
		if n.rng.Float64() < n.cfg.PForward {
			outs = append(outs, out{to: nb, msg: msg})
		}
	}
	return outs
}

func (n *handPort) gossipPushLocked() []out {
	var known []ident.PatternID
	seen := make(map[ident.PatternID]bool)
	for p := range n.local {
		known = append(known, p)
		seen[p] = true
	}
	for p, dirs := range n.table {
		if len(dirs) > 0 && !seen[p] {
			known = append(known, p)
		}
	}
	if len(known) == 0 {
		return nil
	}
	p := known[n.rng.Intn(len(known))]
	set, ok := n.patIdx[p]
	if !ok || set.Len() == 0 {
		return nil
	}
	msg := &wire.GossipPush{Gossiper: n.cfg.ID, Pattern: p, Digest: set.Sorted()}
	return n.forwardPatternLocked(msg, p, ident.None)
}

func (n *handPort) gossipSubPullLocked() []out {
	now := n.now()
	var candidates []ident.PatternID
	for p := range n.local {
		if len(n.lost.ForPattern(p, now)) > 0 {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	p := candidates[n.rng.Intn(len(candidates))]
	msg := &wire.GossipSubPull{
		Gossiper: n.cfg.ID,
		Pattern:  p,
		Wanted:   n.lost.ForPattern(p, now),
	}
	return n.forwardPatternLocked(msg, p, ident.None)
}

func (n *handPort) gossipPubPullLocked() []out {
	now := n.now()
	var candidates []ident.NodeID
	for _, s := range n.lost.Sources(now) {
		if len(n.routes[s]) > 0 {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	s := candidates[n.rng.Intn(len(candidates))]
	route := n.routes[s]
	msg := &wire.GossipPubPull{
		Gossiper: n.cfg.ID,
		Source:   s,
		Wanted:   n.lost.ForSource(s, now),
		Route:    route,
		Next:     uint16(len(route) - 1),
	}
	return []out{{to: route[len(route)-1], msg: msg}}
}

// handleRecovery processes gossip and out-of-band recovery messages.
func (n *handPort) handleRecovery(from ident.NodeID, msg wire.Message, oob bool) {
	switch m := msg.(type) {
	case *wire.GossipPush:
		n.onGossipPush(from, m)
	case *wire.GossipSubPull:
		n.onGossipSubPull(from, m)
	case *wire.GossipPubPull:
		n.onGossipPubPull(m)
	case *wire.GossipRandom:
		// The live node does not initiate random pull (it is an
		// evaluation baseline), but serves its digests for
		// compatibility.
		n.mu.Lock()
		_, outs := n.serveLocked(m.Gossiper, m.Wanted)
		n.mu.Unlock()
		n.flush(outs)
	case *wire.Request:
		n.onRequest(m)
	case *wire.Retransmit:
		n.onRetransmit(m)
	default:
		_ = oob // unknown kinds are dropped silently, like real UDP software
	}
}

func (n *handPort) onGossipPush(from ident.NodeID, m *wire.GossipPush) {
	n.mu.Lock()
	var outs []out
	if n.local[m.Pattern] {
		now := time.Now()
		var missing []ident.EventID
		for _, id := range m.Digest {
			if n.received.Has(id) || n.pending[id] != nil {
				continue // already have it, or a request is in flight
			}
			n.addPendingLocked(id, m.Gossiper, now)
			missing = append(missing, id)
		}
		if len(missing) > 0 {
			req := &wire.Request{Requester: n.cfg.ID, IDs: missing}
			n.ledgerSentLocked(m.Gossiper, req.WireSize())
			outs = append(outs, out{to: m.Gossiper, msg: req, oob: true})
		}
	}
	outs = append(outs, n.forwardPatternLocked(m, m.Pattern, from)...)
	n.mu.Unlock()
	n.flush(outs)
}

func (n *handPort) onGossipSubPull(from ident.NodeID, m *wire.GossipSubPull) {
	n.mu.Lock()
	remaining, outs := n.serveLocked(m.Gossiper, m.Wanted)
	if len(remaining) > 0 {
		fwd := &wire.GossipSubPull{Gossiper: m.Gossiper, Pattern: m.Pattern, Wanted: remaining}
		outs = append(outs, n.forwardPatternLocked(fwd, m.Pattern, from)...)
	}
	n.mu.Unlock()
	n.flush(outs)
}

func (n *handPort) onGossipPubPull(m *wire.GossipPubPull) {
	n.mu.Lock()
	remaining, outs := n.serveLocked(m.Gossiper, m.Wanted)
	if len(remaining) > 0 {
		i := int(m.Next)
		if i > 0 && i < len(m.Route) {
			fwd := &wire.GossipPubPull{
				Gossiper: m.Gossiper,
				Source:   m.Source,
				Wanted:   remaining,
				Route:    m.Route,
				Next:     uint16(i - 1),
			}
			outs = append(outs, out{to: m.Route[i-1], msg: fwd})
		}
	}
	n.mu.Unlock()
	n.flush(outs)
}

// serveLocked looks wanted events up in the buffer and returns the
// retransmission (as outs) plus the entries still missing. Events the
// gossiper's ledger quota cannot cover are trimmed from the response
// and returned in the remaining set, so a replica with quota to spare
// can serve them instead. Callers hold n.mu.
func (n *handPort) serveLocked(gossiper ident.NodeID, wanted []wire.LostEntry) ([]wire.LostEntry, []out) {
	if gossiper == n.cfg.ID {
		return nil, nil
	}
	allowance := n.serveAllowanceLocked(gossiper, time.Now())
	served := 0
	var events []*wire.Event
	seen := make(map[ident.EventID]bool, len(wanted))
	var remaining []wire.LostEntry
	for _, w := range wanted {
		id, ok := n.tagIdx[w]
		if !ok {
			remaining = append(remaining, w)
			continue
		}
		ev := n.buf.Get(id)
		if ev == nil {
			delete(n.tagIdx, w)
			remaining = append(remaining, w)
			continue
		}
		if seen[id] {
			continue
		}
		sz := ev.WireSize()
		if served+sz > allowance {
			n.stats.quotaTrimmed.Add(1)
			remaining = append(remaining, w)
			continue
		}
		seen[id] = true
		served += sz
		events = append(events, ev)
	}
	if len(events) == 0 {
		return remaining, nil
	}
	n.chargeServeLocked(gossiper, served)
	n.stats.served.Add(uint64(len(events)))
	return remaining, []out{{to: gossiper, msg: &wire.Retransmit{Responder: n.cfg.ID, Events: events}, oob: true}}
}

func (n *handPort) onRequest(m *wire.Request) {
	n.mu.Lock()
	n.ledgerRecvLocked(m.Requester, m.WireSize())
	allowance := n.serveAllowanceLocked(m.Requester, time.Now())
	served := 0
	var events []*wire.Event
	for _, id := range m.IDs {
		ev := n.buf.Get(id)
		if ev == nil {
			continue
		}
		sz := ev.WireSize()
		if served+sz > allowance {
			n.stats.quotaTrimmed.Add(1)
			continue
		}
		served += sz
		events = append(events, ev)
	}
	if len(events) > 0 {
		n.chargeServeLocked(m.Requester, served)
		n.stats.served.Add(uint64(len(events)))
	}
	n.mu.Unlock()
	if len(events) > 0 {
		n.sendOOB(m.Requester, &wire.Retransmit{Responder: n.cfg.ID, Events: events})
	}
}

func (n *handPort) onRetransmit(m *wire.Retransmit) {
	for _, ev := range m.Events {
		n.mu.Lock()
		n.ledgerRecvLocked(m.Responder, ev.WireSize())
		if pr := n.pending[ev.ID]; pr != nil {
			pr.done = true
			delete(n.pending, ev.ID)
			n.ledger.peer(pr.from).pending--
		}
		deliver := n.localMatchLocked(ev.Content) && n.received.Add(ev.ID)
		if deliver {
			n.stats.delivered.Add(1)
			n.stats.recovered.Add(1)
			n.indexLocked(ev)
			if n.cfg.Algorithm.NeedsSeqTags() {
				n.detectLocked(ev)
			}
		}
		cb := n.cfg.OnDeliver
		n.mu.Unlock()
		if deliver && cb != nil {
			cb(ev, true)
		}
	}
}

// addPendingLocked registers an outstanding request, shedding the
// greediest peer's oldest entries when the table is full. Callers hold
// n.mu.
func (n *handPort) addPendingLocked(id ident.EventID, from ident.NodeID, now time.Time) {
	for len(n.pending) >= handMaxPending {
		n.shedGreediestLocked()
	}
	pr := &handPendingReq{id: id, from: from, attempts: 1, nextAt: now.Add(n.backoffLocked(1))}
	n.pending[id] = pr
	n.pendingQ = append(n.pendingQ, pr)
	n.ledger.peer(from).pending++
}

// shedOldestLocked evicts the oldest live pending entry regardless of
// peer — the pre-ledger policy, kept as the fallback when the ledger
// has no attribution to offer. Callers hold n.mu.
func (n *handPort) shedOldestLocked() {
	for len(n.pendingQ) > 0 {
		pr := n.pendingQ[0]
		n.pendingQ[0] = nil
		n.pendingQ = n.pendingQ[1:]
		if pr.done {
			continue // lazily discarded tombstone
		}
		pr.done = true
		delete(n.pending, pr.id)
		if pl := n.ledger.peer(pr.from); pl.pending > 0 {
			pl.pending--
		}
		n.stats.pendingShed.Add(1)
		return
	}
}

// backoffLocked returns the delay before attempt+1: exponential in the
// attempt count with ±25% jitter so synchronized losers do not
// retransmit in lockstep. Callers hold n.mu (for the rng).
func (n *handPort) backoffLocked(attempts int) time.Duration {
	d := handRequestBackoff << uint(attempts-1)
	return d + time.Duration(n.rng.Int63n(int64(d)/2+1)) - d/4
}

// retryPendingLocked retransmits overdue requests (batched per
// responder) and abandons entries that exhausted their attempts. It
// also compacts the FIFO queue once tombstones dominate. Callers hold
// n.mu; runs once per gossip round.
func (n *handPort) retryPendingLocked() []out {
	if len(n.pendingQ) > 2*len(n.pending)+64 {
		live := n.pendingQ[:0]
		for _, pr := range n.pendingQ {
			if !pr.done {
				live = append(live, pr)
			}
		}
		for i := len(live); i < len(n.pendingQ); i++ {
			n.pendingQ[i] = nil
		}
		n.pendingQ = live
	}
	if len(n.pending) == 0 {
		return nil
	}
	now := time.Now()
	var byFrom map[ident.NodeID][]ident.EventID
	for id, pr := range n.pending {
		if now.Before(pr.nextAt) {
			continue
		}
		if pr.attempts >= handRequestRetries {
			pr.done = true
			delete(n.pending, id)
			if pl := n.ledger.peer(pr.from); pl.pending > 0 {
				pl.pending--
			}
			n.stats.requestsAbandoned.Add(1)
			continue
		}
		pr.attempts++
		pr.nextAt = now.Add(n.backoffLocked(pr.attempts))
		n.stats.requestsRetried.Add(1)
		if byFrom == nil {
			byFrom = make(map[ident.NodeID][]ident.EventID)
		}
		byFrom[pr.from] = append(byFrom[pr.from], id)
	}
	var outs []out
	for from, ids := range byFrom {
		req := &wire.Request{Requester: n.cfg.ID, IDs: ids}
		n.ledgerSentLocked(from, req.WireSize())
		outs = append(outs, out{to: from, msg: req, oob: true})
	}
	return outs
}

// ledgerSentLocked records recovery bytes transmitted to peer. Callers
// hold n.mu.
func (n *handPort) ledgerSentLocked(peer ident.NodeID, bytes int) {
	pl := n.ledger.peer(peer)
	pl.sentB += uint64(bytes)
	pl.sentMsgs++
}

// ledgerRecvLocked records recovery bytes received from peer. Callers
// hold n.mu.
func (n *handPort) ledgerRecvLocked(peer ident.NodeID, bytes int) {
	pl := n.ledger.peer(peer)
	pl.recvB += uint64(bytes)
	pl.recvMsgs++
}

// serveAllowanceLocked returns how many more Retransmit payload bytes
// peer may be served in the current ledger window, rolling the window
// over if it has elapsed. Unlimited (MaxInt) when no budget is
// configured. Callers hold n.mu.
func (n *handPort) serveAllowanceLocked(peer ident.NodeID, now time.Time) int {
	if n.cfg.ServeBudget <= 0 {
		return math.MaxInt
	}
	pl := n.ledger.peer(peer)
	if pl.windowStart.IsZero() || now.Sub(pl.windowStart) >= n.cfg.LedgerWindow {
		pl.windowStart = now
		pl.windowServed = 0
	}
	return n.cfg.ServeBudget - pl.windowServed
}

// chargeServeLocked debits bytes from peer's window quota and records
// them as sent. Callers hold n.mu.
func (n *handPort) chargeServeLocked(peer ident.NodeID, bytes int) {
	pl := n.ledger.peer(peer)
	pl.windowServed += bytes
	pl.sentB += uint64(bytes)
	pl.sentMsgs++
}

// shedGreediestLocked evicts one live pending entry when the table is
// full: the oldest entry of the greediest peer. Greed is measured in
// live pending entries (the resource being arbitrated), with recovery
// bytes already received as the tie-break. Callers hold n.mu.
func (n *handPort) shedGreediestLocked() {
	var victim ident.NodeID
	var best *handPeerLedger
	for id, pl := range n.ledger.peers {
		if pl.pending == 0 {
			continue
		}
		if best == nil || pl.pending > best.pending ||
			(pl.pending == best.pending && pl.recvB > best.recvB) {
			victim, best = id, pl
		}
	}
	if best == nil {
		// No attributed entries (should not happen: every pending entry
		// increments its peer's count) — fall back to plain oldest-first.
		n.shedOldestLocked()
		return
	}
	for i, pr := range n.pendingQ {
		if pr.done || pr.from != victim {
			continue
		}
		pr.done = true
		delete(n.pending, pr.id)
		best.pending--
		n.stats.pendingShed.Add(1)
		// Tombstone stays in pendingQ; compaction reclaims it. Entries
		// ahead of i belong to other peers and keep their positions.
		_ = i
		return
	}
	// Ledger said the victim had live entries but the queue disagrees;
	// resync and shed oldest so the table still shrinks.
	best.pending = 0
	n.shedOldestLocked()
}
