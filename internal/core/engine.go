package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Stats counts what one engine did. All counters are cumulative.
type Stats struct {
	// RoundsStarted counts gossip rounds that sent at least one digest.
	RoundsStarted uint64
	// RoundsSkipped counts rounds with nothing to gossip (pull rounds
	// with an empty Lost buffer, push rounds with an empty digest or no
	// eligible neighbor).
	RoundsSkipped uint64
	// LossesDetected counts sequence-gap detections.
	LossesDetected uint64
	// Recovered counts events newly delivered through recovery.
	Recovered uint64
	// DuplicateRecoveries counts retransmitted events that had already
	// been received.
	DuplicateRecoveries uint64
	// RequestsSent counts push request messages sent.
	RequestsSent uint64
	// RetransmitsServed counts events served from the local buffer.
	RetransmitsServed uint64
}

// Engine attaches one epidemic recovery algorithm to a dispatcher. It
// implements pubsub.Recovery.
type Engine struct {
	node *pubsub.Node
	k    *sim.Kernel
	cfg  Config
	rng  *rand.Rand

	buf *cache.Cache
	// patRows (push) and tagRows (pull) index the buffered events by
	// pattern; see index.go.
	patRows patternRows[patRow]
	tagRows patternRows[tagRow]

	lost *LostBuffer
	// high holds the loss-detection high-water marks; routes the latest
	// recorded route per source; pending the time of the last push
	// request per event.
	high    highMarks
	routes  [][]ident.NodeID
	pending ident.EventTable[sim.Time]

	ticker *sim.Ticker
	stats  Stats

	// needPatIdx/needTagIdx gate index maintenance: push digests need
	// the per-pattern index, pull serving needs the per-tag index.
	needPatIdx bool
	needTagIdx bool

	// knobs is the coherent per-round snapshot of the live gossip
	// knobs. Every probabilistic decision of a round (and of the
	// handlers that run between rounds) reads this one value; it is
	// replaced only at round boundaries, so a mid-round adaptation can
	// never produce a torn read between the forward and pull phases.
	// For static engines it is fixed at construction from cfg.
	knobs adapt.Knobs

	// ctrl, when non-nil, is the closed-loop adaptive controller
	// (cfg.Adapt, or implied by Algorithm == Hybrid). obs observes its
	// round-boundary snapshots (the adaptation invariant monitor).
	ctrl *adapt.Controller
	obs  func(adapt.Snapshot)

	// admit, when non-nil, vets every event before it is served to a
	// peer (SetServeAdmission); the simulator leaves it nil.
	admit func(to ident.NodeID, ev *wire.Event) bool

	// Cumulative signal counters for the controller: delivered counts
	// every first-copy delivery (routed or recovered), pushMissing
	// counts events missing from received push digests (the loss
	// signal of pure-push engines, which never see seqno gaps).
	delivered   uint64
	pushMissing uint64
	// last* remember the previous observation to form deltas.
	lastDelivered uint64
	lastLost      uint64
	lastRecovered uint64
	lastLinkEpoch uint64
	lastObserveAt sim.Time

	// Reusable scratch buffers for the per-round and per-message hot
	// paths. They are only ever handed to callees that consume them
	// synchronously; anything embedded in an outgoing message is cloned
	// first (messages outlive the round — the network delivers them at
	// a later virtual time).
	patScratch  []ident.PatternID
	srcScratch  []ident.NodeID
	nbScratch   []ident.NodeID
	idScratch   []ident.EventID
	evScratch   []*wire.Event
	wantScratch []wire.LostEntry
	keyScratch  []uint64 // merge buffer of the push rows' compaction
}

var _ pubsub.Recovery = (*Engine)(nil)

// NewEngine builds a recovery engine for node. The engine installs
// itself as the node's Recovery hook. Use Start to begin gossiping.
func NewEngine(node *pubsub.Node, cfg Config) (*Engine, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Algorithm == NoRecovery {
		return nil, fmt.Errorf("core: %v installs no engine; use pubsub.NopRecovery", cfg.Algorithm)
	}
	k := node.Kernel()
	rng := k.NewStream(0x636f7265 + int64(node.ID())) // "core" + node
	e := &Engine{
		node: node,
		k:    k,
		cfg:  cfg,
		rng:  rng,

		needPatIdx: cfg.Algorithm == Push || cfg.Algorithm == Hybrid,
		needTagIdx: cfg.Algorithm.NeedsSeqTags(),

		knobs: adapt.Knobs{
			PForward: cfg.PForward,
			PSource:  cfg.PSource,
			Fanout:   1,
			Interval: cfg.GossipInterval,
		},

		buf:  cache.New(cfg.BufferSize, cfg.BufferPolicy, rng),
		lost: NewLostBuffer(cfg.LostCapacity, cfg.LostTTL),
	}
	if cfg.Adapt != nil {
		e.ctrl = adapt.New(cfg.Adapt.Normalized(cfg.GossipInterval), e.knobs, cfg.Algorithm == Hybrid)
		e.knobs = e.ctrl.Knobs()
		e.lastLinkEpoch = node.LinkEpoch()
		e.lastObserveAt = k.Now()
	}
	e.buf.SetOnEvict(e.unindex)
	node.SetRecovery(e)
	return e, nil
}

// Start begins periodic gossip rounds, desynchronized by a random
// initial phase within one interval.
func (e *Engine) Start() {
	if e.ticker != nil {
		panic("core: engine already started")
	}
	// An adaptive engine restarts at its current adapted period (the
	// controller's state survives a Stop/Start cycle — the knobs are
	// this engine's tuning, not the crashed process's volatile state).
	e.ticker = sim.NewJitteredTicker(e.k, e.knobs.Interval, e.rng, e.round)
}

// Stop cancels future gossip rounds. A stopped engine can be started
// again (fault injection pauses gossip across a dispatcher's downtime);
// the restart begins a fresh ticker, so an adaptively adjusted interval
// resets to the configured one — like a process that lost its volatile
// tuning state.
func (e *Engine) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Knobs returns the engine's current coherent knob snapshot.
func (e *Engine) Knobs() adapt.Knobs { return e.knobs }

// AdaptStats returns the adaptive controller's trajectory summary;
// ok is false for static engines.
func (e *Engine) AdaptStats() (adapt.Stats, bool) {
	if e.ctrl == nil {
		return adapt.Stats{}, false
	}
	return e.ctrl.Stats(), true
}

// SetAdaptObserver installs a hook that sees every round-boundary
// controller snapshot (the adaptation invariant monitor). A no-op on
// static engines.
func (e *Engine) SetAdaptObserver(fn func(adapt.Snapshot)) {
	if e.ctrl != nil {
		e.obs = fn
	}
}

// SetServeAdmission installs admit, asked once per distinct event
// before the engine serves it to peer to — on the pull paths and for
// push requests alike. An event admit refuses is withheld: a pull
// digest keeps its entry in the remaining set, so the digest can still
// find another replica. The live driver meters its per-peer serve
// quota here; nil (the default) admits everything.
func (e *Engine) SetServeAdmission(admit func(to ident.NodeID, ev *wire.Event) bool) {
	e.admit = admit
}

// BufferLen returns the current event-buffer occupancy.
func (e *Engine) BufferLen() int { return e.buf.Len() }

// LostLen returns the number of outstanding Lost entries.
func (e *Engine) LostLen() int { return e.lost.Len() }

// GossipInterval returns the current interval (it changes over time
// when the closed-loop controller is armed).
func (e *Engine) GossipInterval() sim.Time {
	if e.ticker != nil {
		return e.ticker.Period()
	}
	return e.cfg.GossipInterval
}

// OnPublish implements pubsub.Recovery: published events are cached at
// the source (required by publisher-based pull and useful to all
// variants).
func (e *Engine) OnPublish(ev *wire.Event) {
	e.index(ev)
}

// OnDeliver implements pubsub.Recovery: delivered events are cached,
// their sequence tags drive loss detection, and their recorded route
// refreshes the Routes buffer.
func (e *Engine) OnDeliver(ev *wire.Event, _ ident.NodeID) {
	e.delivered++
	e.index(ev)
	if e.cfg.Algorithm.NeedsSeqTags() {
		e.detect(ev)
	}
	if e.cfg.Algorithm.NeedsRoutes() && len(ev.Route) > 0 {
		e.routes = growRows(e.routes, ev.ID.Source)
		e.routes[ev.ID.Source] = ev.Route
	}
}

// index buffers ev and maintains the pattern and tag indices.
func (e *Engine) index(ev *wire.Event) {
	if e.buf.Has(ev.ID) {
		return
	}
	e.buf.Put(ev)
	if e.needPatIdx {
		for _, p := range ev.Content {
			e.patRows.add(p).add(ev.ID)
		}
	}
	if e.needTagIdx {
		for _, t := range ev.Tags {
			e.tagRows.add(t.Pattern).put(ev.ID.Source, t.Seq, ev.ID.Seq)
		}
	}
}

// unindex drops the index entries of an evicted event.
func (e *Engine) unindex(ev *wire.Event) {
	if e.needPatIdx {
		for _, p := range ev.Content {
			if r := e.patRows.row(p); r != nil {
				r.remove(e.buf, &e.keyScratch)
			}
		}
	}
	if e.needTagIdx {
		for _, t := range ev.Tags {
			if r := e.tagRows.row(t.Pattern); r != nil {
				r.del(ev.ID.Source, t.Seq)
			}
		}
	}
}

// detect runs sequence-gap loss detection (paper Sec. III-B, "Pull"):
// an event whose per-(source, pattern) sequence number exceeds the
// expected one reveals the loss of every event in between.
func (e *Engine) detect(ev *wire.Event) {
	now := e.k.Now()
	for _, tag := range ev.Tags {
		if !e.node.IsLocal(tag.Pattern) {
			continue
		}
		high := e.high.get(tag.Pattern, ev.ID.Source)
		switch {
		case tag.Seq > high:
			// The Lost buffer keeps only its newest Cap detections, so
			// the older part of a wider gap is counted but not added:
			// a forged sequence number costs no time in proportion to
			// its jump.
			gap := tag.Seq - high - 1
			e.stats.LossesDetected += uint64(gap)
			q := high + 1
			if c := uint32(e.lost.Cap()); gap > c {
				q = tag.Seq - c
			}
			for ; q < tag.Seq; q++ {
				e.lost.Add(wire.LostEntry{Source: ev.ID.Source, Pattern: tag.Pattern, Seq: q}, now)
			}
			e.high.set(tag.Pattern, ev.ID.Source, tag.Seq)
		default:
			// A late or recovered event fills its gap; the time since
			// its detection is a recovery-latency sample.
			entry := wire.LostEntry{Source: ev.ID.Source, Pattern: tag.Pattern, Seq: tag.Seq}
			if e.ctrl != nil {
				if at, ok := e.lost.DetectedAt(entry); ok {
					e.ctrl.ObserveLatency(now - at)
				}
			}
			e.lost.Remove(entry)
		}
	}
}

// RunRound executes one gossip round immediately, outside the ticker.
// It exists for benchmarks and tests that drive rounds explicitly; in
// normal operation rounds are driven by Start.
func (e *Engine) RunRound() { e.round() }

// round runs one gossip round: the effective algorithm (a hybrid
// engine dispatches as push or combined pull depending on the
// controller's mode) initiates gossip knobs.Fanout times, then the
// controller observes the round and publishes the next knob snapshot.
func (e *Engine) round() {
	alg := e.cfg.Algorithm
	if alg == Hybrid {
		if e.ctrl.Mode() == adapt.ModePush {
			alg = Push
		} else {
			alg = CombinedPull
		}
	}
	var sent bool
	for i := 0; i < e.knobs.Fanout; i++ {
		if e.dispatchOnce(alg) {
			sent = true
		}
	}
	if sent {
		e.stats.RoundsStarted++
	} else {
		e.stats.RoundsSkipped++
	}
	if e.ctrl != nil {
		e.observe()
	}
	e.sweepPending()
}

// dispatchOnce initiates one gossip exchange of the given effective
// algorithm. When the controller has engaged the random-walk
// degradation, routed pull digests fall back to random walks — the
// routing state they rely on is evidently stale.
func (e *Engine) dispatchOnce(alg Algorithm) bool {
	switch alg {
	case Push:
		return e.gossipPush()
	case SubscriberPull:
		if e.knobs.Walk {
			return e.gossipRandom()
		}
		return e.gossipSubPull()
	case PublisherPull:
		return e.gossipPubPull()
	case CombinedPull:
		if e.knobs.Walk {
			return e.gossipRandom()
		}
		if e.rng.Float64() < e.knobs.PSource {
			return e.gossipPubPull() || e.gossipSubPull()
		}
		return e.gossipSubPull() || e.gossipPubPull()
	case RandomPull:
		return e.gossipRandom()
	}
	return false
}

// observe closes the control loop at the round boundary: form the
// signal deltas since the previous boundary, fold them into the
// estimator, and install the controller's next knob snapshot.
func (e *Engine) observe() {
	now := e.k.Now()
	lostCum := e.stats.LossesDetected
	if !e.cfg.Algorithm.NeedsSeqTags() {
		// Pure push never sees seqno gaps; missing events in received
		// push digests are its loss evidence.
		lostCum = e.pushMissing
	}
	epoch := e.node.LinkEpoch()
	sig := adapt.Signals{
		Elapsed:     now - e.lastObserveAt,
		Delivered:   e.delivered - e.lastDelivered,
		Lost:        lostCum - e.lastLost,
		Recovered:   e.stats.Recovered - e.lastRecovered,
		Outstanding: e.lost.Len(),
		LinkChanges: epoch - e.lastLinkEpoch,
	}
	e.lastObserveAt = now
	e.lastDelivered = e.delivered
	e.lastLost = lostCum
	e.lastRecovered = e.stats.Recovered
	e.lastLinkEpoch = epoch

	snap := e.ctrl.Observe(now, sig)
	e.knobs = snap.Knobs
	if e.ticker != nil {
		e.ticker.SetPeriod(snap.Knobs.Interval)
	}
	if e.obs != nil {
		e.obs(snap)
	}
}

// gossipPush starts a push round: pick a random pattern from the whole
// subscription table, send a positive digest of the cached events
// matching it toward the pattern's subscribers.
func (e *Engine) gossipPush() bool {
	ps := e.node.KnownPatterns()
	if len(ps) == 0 {
		return false
	}
	p := ps[e.rng.Intn(len(ps))]
	digest := e.pushDigest(p)
	if len(digest) == 0 {
		return false
	}
	msg := &wire.GossipPush{
		Gossiper: e.node.ID(),
		Pattern:  p,
		Digest:   digest,
	}
	return e.forwardPattern(msg, p, ident.None)
}

// pushDigest returns the positive digest of the buffered events matching
// p: an immutable view that may be embedded in messages (see patRow).
func (e *Engine) pushDigest(p ident.PatternID) []ident.EventID {
	r := e.patRows.row(p)
	if r == nil {
		return nil
	}
	return r.digest(e.buf, &e.keyScratch)
}

// forwardPattern routes a pattern-labelled gossip message like an event
// matching p, thinning to each eligible neighbor with probability
// PForward (read from the coherent per-round knob snapshot).
func (e *Engine) forwardPattern(msg wire.Message, p ident.PatternID, from ident.NodeID) bool {
	sent := false
	var buf pubsub.DirBuf
	for _, nb := range e.node.InterestDirections(&buf, p) {
		if nb == from {
			continue
		}
		if e.rng.Float64() < e.knobs.PForward {
			e.node.SendTree(nb, msg)
			sent = true
		}
	}
	return sent
}

// gossipSubPull starts a subscriber-based pull round: pick a locally
// subscribed pattern with outstanding losses and gossip a negative
// digest toward its other subscribers.
//
// The candidate set is the intersection of two bitsets: local
// subscriptions and patterns with outstanding losses. Because bitset
// iteration ascends like the sorted lists it replaced, the i-th
// candidate is the same pattern the slice scan would have produced,
// so the rng draw picks identically and fixed-seed traces are
// unchanged.
func (e *Engine) gossipSubPull() bool {
	now := e.k.Now()
	cand := e.lost.PatternSet(now).Intersect(e.node.LocalPatternSet())
	n := cand.Len()
	if n == 0 {
		return false
	}
	p := cand.At(e.rng.Intn(n))
	msg := &wire.GossipSubPull{
		Gossiper: e.node.ID(),
		Pattern:  p,
		Wanted:   e.lost.ForPattern(p, now),
	}
	return e.forwardPattern(msg, p, ident.None)
}

// gossipPubPull starts a publisher-based pull round: pick a source with
// outstanding losses and a known route, and send a negative digest back
// along that route toward the publisher.
func (e *Engine) gossipPubPull() bool {
	now := e.k.Now()
	candidates := e.srcScratch[:0]
	for _, s := range e.lost.Sources(now) {
		if int(s) < len(e.routes) && len(e.routes[s]) > 0 {
			candidates = append(candidates, s)
		}
	}
	e.srcScratch = candidates
	if len(candidates) == 0 {
		return false
	}
	s := candidates[e.rng.Intn(len(candidates))]
	route := e.routes[s]
	msg := &wire.GossipPubPull{
		Gossiper: e.node.ID(),
		Source:   s,
		Wanted:   e.lost.ForSource(s, now),
		Route:    route,
		Next:     uint16(len(route) - 1),
	}
	e.node.SendTree(route[len(route)-1], msg)
	return true
}

// gossipRandom starts a random-pull round: the full negative digest
// walks the tree at random.
func (e *Engine) gossipRandom() bool {
	now := e.k.Now()
	wanted := e.lost.All(now)
	if len(wanted) == 0 {
		return false
	}
	nbs := e.node.Neighbors()
	if len(nbs) == 0 {
		return false
	}
	msg := &wire.GossipRandom{Gossiper: e.node.ID(), Wanted: wanted}
	e.node.SendTree(nbs[e.rng.Intn(len(nbs))], msg)
	return true
}

// HandleRecovery implements pubsub.Recovery.
func (e *Engine) HandleRecovery(from ident.NodeID, msg wire.Message, oob bool) {
	switch m := msg.(type) {
	case *wire.GossipPush:
		e.onGossipPush(from, m)
	case *wire.GossipSubPull:
		e.onGossipSubPull(from, m)
	case *wire.GossipPubPull:
		e.onGossipPubPull(m)
	case *wire.GossipRandom:
		e.onGossipRandom(from, m)
	case *wire.Request:
		e.onRequest(m)
	case *wire.Retransmit:
		e.onRetransmit(m)
	default:
		panic(fmt.Sprintf("core: unexpected message %v at %v (oob=%v)", msg.Kind(), e.node.ID(), oob))
	}
}

// onGossipPush diffs the positive digest against the received set and
// requests missing events from the gossiper out-of-band, then keeps the
// digest moving toward the pattern's other subscribers.
func (e *Engine) onGossipPush(from ident.NodeID, m *wire.GossipPush) {
	if e.node.IsLocal(m.Pattern) {
		now := e.k.Now()
		missing := e.idScratch[:0]
		for _, id := range m.Digest {
			if e.node.HasReceived(id) {
				continue
			}
			if at, ok := e.pending.Get(id); ok && now-at <= e.cfg.PendingTTL {
				continue
			}
			e.pending.Put(id, now)
			missing = append(missing, id)
		}
		e.idScratch = missing
		if len(missing) > 0 {
			e.pushMissing += uint64(len(missing))
			e.stats.RequestsSent++
			// The request outlives this handler; it gets its own copy.
			e.node.SendOOB(m.Gossiper, &wire.Request{Requester: e.node.ID(), IDs: slices.Clone(missing)})
		}
	}
	// Mode discipline applies to propagation, not consumption: a hybrid
	// node that has switched to pull still harvests the digests it
	// receives (above), but refuses to amplify them. On cyclic overlays
	// the un-deduplicated digest flood is self-sustaining — every copy
	// spawns ~(degree-1)·PForward copies per hop — so storms launched
	// before a mode switch would otherwise saturate the FIFO links for
	// the rest of the run.
	if e.ctrl != nil && e.ctrl.Mode() == adapt.ModePull {
		return
	}
	e.forwardPattern(m, m.Pattern, from)
}

// onGossipSubPull serves wanted events from the local buffer (this node
// need not subscribe to the gossiped pattern: it may cache the events
// because they match a different pattern) and forwards the rest of the
// digest.
func (e *Engine) onGossipSubPull(from ident.NodeID, m *wire.GossipSubPull) {
	remaining := e.serve(m.Gossiper, m.Wanted)
	if len(remaining) == 0 {
		return
	}
	// Same discipline as the push damper below: a node whose
	// controller has degraded to random walks considers the routing
	// state these digests follow stale — it serves what it can but
	// refuses to amplify the routed flood. Sub-pull digests have no
	// duplicate suppression, so on cyclic overlays each re-forward
	// spawns ~(degree-1)·PForward copies and the flood is
	// self-sustaining; walk-mode nodes are exactly the ones observing
	// that machinery fail.
	if e.knobs.Walk {
		return
	}
	fwd := &wire.GossipSubPull{Gossiper: m.Gossiper, Pattern: m.Pattern, Wanted: unserved(m.Wanted, remaining)}
	e.forwardPattern(fwd, m.Pattern, from)
}

// onGossipPubPull serves wanted events and walks the message one hop
// further along the recorded route toward the publisher.
func (e *Engine) onGossipPubPull(m *wire.GossipPubPull) {
	remaining := e.serve(m.Gossiper, m.Wanted)
	if len(remaining) == 0 {
		return
	}
	i := int(m.Next)
	if i <= 0 || i >= len(m.Route) {
		return // reached the publisher (or a malformed route)
	}
	fwd := &wire.GossipPubPull{
		Gossiper: m.Gossiper,
		Source:   m.Source,
		Wanted:   unserved(m.Wanted, remaining),
		Route:    m.Route,
		Next:     uint16(i - 1),
	}
	// The next hop was a neighbor when the route was recorded; if the
	// topology changed since, the send is dropped by the network layer
	// (the paper accepts exactly this risk for publisher-based pull).
	e.node.SendTree(m.Route[i-1], fwd)
}

// onGossipRandom serves wanted events and continues the random walk
// with probability PForward.
func (e *Engine) onGossipRandom(from ident.NodeID, m *wire.GossipRandom) {
	remaining := e.serve(m.Gossiper, m.Wanted)
	if len(remaining) == 0 {
		return
	}
	if e.rng.Float64() >= e.knobs.PForward {
		return
	}
	nbs := e.nbScratch[:0]
	for _, nb := range e.node.Neighbors() {
		if nb != from && nb != m.Gossiper {
			nbs = append(nbs, nb)
		}
	}
	e.nbScratch = nbs
	if len(nbs) == 0 {
		return
	}
	fwd := &wire.GossipRandom{Gossiper: m.Gossiper, Wanted: unserved(m.Wanted, remaining)}
	e.node.SendTree(nbs[e.rng.Intn(len(nbs))], fwd)
}

// serve sends the wanted events present in the local buffer back to the
// gossiper out-of-band and returns the entries still missing. The
// returned slice is engine-owned scratch, valid until the next serve
// call; a caller that forwards it either clones it or, when serve took
// nothing, forwards the incoming digest itself (see unserved).
func (e *Engine) serve(gossiper ident.NodeID, wanted []wire.LostEntry) []wire.LostEntry {
	if gossiper == e.node.ID() {
		// A stale route or random walk brought our own digest back.
		return nil
	}
	events := e.evScratch[:0]
	remaining := e.wantScratch[:0]
	var (
		row *tagRow
		pat = ident.NoPattern
	)
	for _, w := range wanted {
		if w.Pattern != pat {
			pat, row = w.Pattern, e.tagRows.row(w.Pattern)
		}
		if row == nil {
			remaining = append(remaining, w)
			continue
		}
		eseq, ok := row.get(w.Source, w.Seq)
		if !ok {
			remaining = append(remaining, w)
			continue
		}
		id := ident.EventID{Source: w.Source, Seq: eseq}
		ev := e.buf.Get(id)
		if ev == nil {
			row.del(w.Source, w.Seq) // stale index entry
			remaining = append(remaining, w)
			continue
		}
		// Several wanted tags can map to one event; a linear scan over
		// the handful collected so far replaces the old per-call map.
		if !containsEvent(events, id) {
			if e.admit != nil && !e.admit(gossiper, ev) {
				remaining = append(remaining, w)
				continue
			}
			events = append(events, ev)
		}
	}
	e.evScratch = events
	e.wantScratch = remaining
	if len(events) > 0 {
		e.stats.RetransmitsServed += uint64(len(events))
		e.node.SendOOB(gossiper, &wire.Retransmit{Responder: e.node.ID(), Events: slices.Clone(events)})
	}
	return remaining
}

// unserved returns the part of the incoming digest wanted that serve
// left over as remaining, ready to embed in a forwarded message. When
// serve took nothing, remaining equals wanted entry for entry, and
// wanted itself — an immutable Lost-buffer snapshot or a freshly
// decoded slice — is forwarded without a copy.
func unserved(wanted, remaining []wire.LostEntry) []wire.LostEntry {
	if len(remaining) == len(wanted) {
		return wanted
	}
	return slices.Clone(remaining)
}

func containsEvent(events []*wire.Event, id ident.EventID) bool {
	for _, ev := range events {
		if ev.ID == id {
			return true
		}
	}
	return false
}

// onRequest serves a push request from the local buffer.
func (e *Engine) onRequest(m *wire.Request) {
	events := e.evScratch[:0]
	for _, id := range m.IDs {
		if ev := e.buf.Get(id); ev != nil && (e.admit == nil || e.admit(m.Requester, ev)) {
			events = append(events, ev)
		}
	}
	e.evScratch = events
	if len(events) == 0 {
		return
	}
	e.stats.RetransmitsServed += uint64(len(events))
	e.node.SendOOB(m.Requester, &wire.Retransmit{Responder: e.node.ID(), Events: slices.Clone(events)})
}

// onRetransmit integrates recovered events: deliver locally, cache,
// and feed loss detection (a recovered event can itself reveal older
// gaps).
func (e *Engine) onRetransmit(m *wire.Retransmit) {
	for _, ev := range m.Events {
		e.pending.Delete(ev.ID)
		if !e.node.DeliverRecovered(ev) {
			e.stats.DuplicateRecoveries++
			continue
		}
		e.stats.Recovered++
		e.delivered++
		e.index(ev)
		if e.cfg.Algorithm.NeedsSeqTags() {
			e.detect(ev)
		}
	}
}

// sweepPending drops expired entries from the pending-request table so
// it cannot grow without bound.
func (e *Engine) sweepPending() {
	if e.pending.Len() < 1024 {
		return
	}
	now, ttl := e.k.Now(), e.cfg.PendingTTL
	e.pending.DeleteFunc(func(_ ident.EventID, at sim.Time) bool { return now-at > ttl })
}
