// Package pubsub implements the best-effort distributed content-based
// publish-subscribe system the epidemic algorithms recover events for
// (paper Sec. II): dispatchers connected in an unrooted tree overlay,
// subscription forwarding with duplicate-direction suppression, and
// reverse-path event routing. It also implements route repair after a
// topological reconfiguration — our stand-in for the reconfiguration
// algorithm of Picco et al. (paper ref. [7]): a broken link triggers
// unsubscription-style flushes, a replacement link triggers exchange
// and re-propagation of the two components' subscription tables.
package pubsub

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Recovery is the hook the epidemic recovery engine (internal/core)
// installs on each dispatcher. A nil-safe no-op implementation is used
// when recovery is disabled (the paper's "no recovery" baseline).
type Recovery interface {
	// OnPublish fires after the local dispatcher stamped a new event,
	// before routing. The publisher caches its own events here
	// (required by publisher-based pull, paper Sec. III-B).
	OnPublish(ev *wire.Event)
	// OnDeliver fires when an event matching a local subscription is
	// delivered for the first time through normal routing. The engine
	// caches the event and runs loss detection here.
	OnDeliver(ev *wire.Event, from ident.NodeID)
	// HandleRecovery processes gossip digests, recovery requests, and
	// retransmissions addressed to this dispatcher.
	HandleRecovery(from ident.NodeID, msg wire.Message, oob bool)
}

// NopRecovery is the no-recovery baseline.
type NopRecovery struct{}

var _ Recovery = NopRecovery{}

// OnPublish implements Recovery.
func (NopRecovery) OnPublish(*wire.Event) {}

// OnDeliver implements Recovery.
func (NopRecovery) OnDeliver(*wire.Event, ident.NodeID) {}

// HandleRecovery implements Recovery.
func (NopRecovery) HandleRecovery(ident.NodeID, wire.Message, bool) {}

// Net is the transport a dispatcher sends through: the simulator's
// *network.Network, or a live driver that buffers the sends and
// transmits them on real sockets.
type Net interface {
	// Register installs the handler for messages addressed to id.
	Register(id ident.NodeID, h network.Handler)
	// Send transmits msg to a direct neighbor on the overlay.
	Send(from, to ident.NodeID, msg wire.Message)
	// SendOOB transmits msg to any dispatcher out of band.
	SendOOB(from, to ident.NodeID, msg wire.Message)
}

var _ Net = (*network.Network)(nil)

// DeliverFunc observes every local delivery (original or recovered).
type DeliverFunc func(node ident.NodeID, ev *wire.Event, recovered bool)

// Config carries per-node behavior switches.
type Config struct {
	// RecordRoutes appends each traversed dispatcher to the event's
	// Route field, as required by publisher-based pull.
	RecordRoutes bool
	// DedupForward makes every dispatcher record each event it sees and
	// forward only first arrivals. On the acyclic tree this is redundant
	// (the tree itself guarantees a single arrival per event), so it
	// stays off by default; on cyclic overlays (scale-free, small-world)
	// it is what terminates the flood.
	DedupForward bool
	// OnDeliver, when non-nil, observes local deliveries (metrics).
	OnDeliver DeliverFunc
}

// Node is one dispatching server. All methods must be called from the
// simulation goroutine (the kernel is single-threaded).
//
// Subscription state is held twice: tiered bitsets (localSet,
// tableSet) answer the per-event membership questions on the routing
// path without map probes for every pattern identifier, while the
// sorted localList stays the authoritative local set. The
// interest-direction table is one uint16 cell per pattern: a row is an
// ordered subset of at most four adjacency slots, encoded as a 3-bit
// length and four 2-bit slot indices, so a 10,000-node run pays two
// bytes per (node, pattern). Slots are stable: a neighbor keeps its
// slot while linked, and a slot is freed only after every row naming
// it was flushed, so no cell is ever re-coded. Rows a cell cannot
// encode spill into dirOver as NodeIDs.
type Node struct {
	id  ident.NodeID
	k   *sim.Kernel
	net Net
	cfg Config

	neighbors []ident.NodeID

	localSet  ident.PatternSet
	localList []ident.PatternID // sorted; authoritative local set

	// slots is the adjacency-slot table the cells index: slots[i] is the
	// neighbor in slot i, or ident.None for a free slot. A new neighbor
	// takes the first free slot; OnLinkDown frees a slot only after its
	// flush removed the neighbor from every row.
	slots []ident.NodeID

	// Interest-direction table. cells[p] encodes p's direction row (see
	// cellLenBits); a cell of dirSpill means the row lives in dirOver.
	// tableSet mirrors which patterns have at least one direction so
	// "any interest in p?" and table iteration are bit operations.
	cells    []uint16
	dirOver  map[ident.PatternID][]ident.NodeID
	tableSet ident.PatternSet

	// known caches KnownPatterns between subscription-state changes:
	// the push gossiper calls it every round, the table changes only on
	// (un)subscriptions and reconfigurations. nil marks it stale.
	known []ident.PatternID

	// fwdScratch deduplicates forwarding directions per event without a
	// per-call map; reused across forwards (single-threaded kernel).
	fwdScratch []ident.NodeID

	// linkEpoch counts this node's adjacency mutations (OnLinkUp /
	// OnLinkDown). It is the node-local churn signal of the adaptive
	// controller, sampled by this node's own engine at round boundaries.
	linkEpoch uint64

	nextSeq uint32
	// patSeq is the per-pattern sequence counter, a dense slab indexed
	// by pattern (grown on demand) instead of a map.
	patSeq   []uint32
	received ident.SeqSet

	recovery Recovery
}

var _ network.Handler = (*Node)(nil)

// NewNode builds a dispatcher with the given initial neighbor set.
func NewNode(id ident.NodeID, k *sim.Kernel, net Net, neighbors []ident.NodeID, cfg Config) *Node {
	n := &Node{
		id:        id,
		k:         k,
		net:       net,
		cfg:       cfg,
		neighbors: append([]ident.NodeID(nil), neighbors...),
		slots:     append([]ident.NodeID(nil), neighbors...),
		recovery:  NopRecovery{},
	}
	net.Register(id, n)
	return n
}

// ID returns the dispatcher identifier.
func (n *Node) ID() ident.NodeID { return n.id }

// LinkEpoch returns the number of adjacency mutations (links added or
// removed) this node has observed — the churn signal of the adaptive
// recovery controller.
func (n *Node) LinkEpoch() uint64 { return n.linkEpoch }

// Kernel returns the simulation kernel the node runs on. Per-node
// components (the recovery engine, its gossip ticker) read the clock
// and schedule through it.
func (n *Node) Kernel() *sim.Kernel { return n.k }

// SetRecovery installs the epidemic recovery engine. Passing nil
// restores the no-recovery baseline.
func (n *Node) SetRecovery(r Recovery) {
	if r == nil {
		n.recovery = NopRecovery{}
		return
	}
	n.recovery = r
}

// Neighbors returns the current neighbor set. The slice is owned by the
// node and must not be mutated.
func (n *Node) Neighbors() []ident.NodeID { return n.neighbors }

// LocalPatterns returns the locally subscribed patterns, sorted. The
// slice is owned by the node and must not be mutated.
func (n *Node) LocalPatterns() []ident.PatternID { return n.localList }

// LocalPatternSet returns the bitset of local subscriptions. The
// tiered set represents every pattern identifier, so it is exact.
func (n *Node) LocalPatternSet() ident.PatternSet {
	return n.localSet
}

// IsLocal reports whether p is locally subscribed.
func (n *Node) IsLocal(p ident.PatternID) bool {
	return n.localSet.Has(p)
}

// LocalMatch reports whether the content matches a local subscription.
func (n *Node) LocalMatch(c matching.Content) bool {
	for _, p := range c {
		if n.localSet.Has(p) {
			return true
		}
	}
	return false
}

// setLocal records p as locally subscribed; reports whether it was new.
func (n *Node) setLocal(p ident.PatternID) bool {
	if n.IsLocal(p) {
		return false
	}
	n.localSet.Add(p)
	n.localList = insertSorted(n.localList, p)
	return true
}

// clearLocal removes p from the local subscriptions; reports whether it
// was present.
func (n *Node) clearLocal(p ident.PatternID) bool {
	if !n.IsLocal(p) {
		return false
	}
	n.localSet.Remove(p)
	n.localList = removeSorted(n.localList, p)
	return true
}

// dirStride is the widest row a cell encodes, and the number of slots
// it can name. It matches the default overlay degree bound; the rare
// wider rows (star hubs in tests) spill into dirOver.
const dirStride = 4

// A direction cell holds a row's length in its low three bits and the
// row's slot indices, two bits each in row order, above them. A zero
// cell is "no row"; the length dirSpill marks a row held in dirOver.
const (
	cellLenBits = 3
	cellLenMask = 1<<cellLenBits - 1
	dirSpill    = cellLenMask
)

// DirBuf is caller-owned storage that InterestDirections decodes an
// encoded row into. A caller keeps it on its own stack, so a re-entrant
// forward cannot overwrite a row another forward is iterating.
type DirBuf [dirStride]ident.NodeID

// InterestDirections returns the neighbors with (remote) interest in p,
// in forwarding order: decoded into buf, or, for a spilled row, the
// node's own slice, valid until the row changes. Callers must not
// mutate the result.
func (n *Node) InterestDirections(buf *DirBuf, p ident.PatternID) []ident.NodeID {
	if p < 0 || int(p) >= len(n.cells) {
		return nil
	}
	c := n.cells[p]
	l := int(c & cellLenMask)
	switch l {
	case 0:
		return nil
	case dirSpill:
		return n.dirOver[p]
	}
	for i := 0; i < l; i++ {
		buf[i] = n.slots[c>>(cellLenBits+2*i)&3]
	}
	return buf[:l]
}

// hasDirs reports whether p has a direction row.
func (n *Node) hasDirs(p ident.PatternID) bool {
	return p >= 0 && int(p) < len(n.cells) && n.cells[p] != 0
}

// slotOf returns nb's adjacency slot, or -1 when nb is not a neighbor.
func (n *Node) slotOf(nb ident.NodeID) int {
	for i, x := range n.slots {
		if x == nb {
			return i
		}
	}
	return -1
}

// addDir appends nb to p's direction row, keeping insertion order
// (exactly as the per-pattern append-grown slices it replaced did).
// The caller has already checked nb is not present.
func (n *Node) addDir(p ident.PatternID, nb ident.NodeID) {
	n.addDirRow(p, nb)
	n.tableSet.Add(p)
}

// addDirRow is addDir without the tableSet update, which the sweep
// reference installer (setup_test.go) batches into one build per node.
func (n *Node) addDirRow(p ident.PatternID, nb ident.NodeID) {
	if int(p) >= len(n.cells) {
		// Grow the table in coarse steps so a universe discovered
		// pattern-by-pattern does not re-grow per pattern.
		cells := make([]uint16, (int(p)+ident.PatternSetCap)&^(ident.PatternSetCap-1))
		copy(cells, n.cells)
		n.cells = cells
	}
	c := n.cells[p]
	l := int(c & cellLenMask)
	if l == dirSpill {
		n.dirOver[p] = append(n.dirOver[p], nb)
		return
	}
	if s := n.slotOf(nb); l < dirStride && s >= 0 && s < dirStride {
		n.cells[p] = c&^cellLenMask | uint16(l+1) | uint16(s)<<(cellLenBits+2*l)
		return
	}
	// The row no longer fits a cell: move it to the spill map.
	if n.dirOver == nil {
		n.dirOver = make(map[ident.PatternID][]ident.NodeID)
	}
	var buf DirBuf
	n.dirOver[p] = append(append(make([]ident.NodeID, 0, l+1), n.InterestDirections(&buf, p)...), nb)
	n.cells[p] = dirSpill
}

// removeDir deletes nb from p's direction row, preserving the order of
// the remaining entries; it reports whether nb was present.
func (n *Node) removeDir(p ident.PatternID, nb ident.NodeID) bool {
	if !n.hasDirs(p) {
		return false
	}
	c := n.cells[p]
	if l := int(c & cellLenMask); l != dirSpill {
		for i := 0; i < l; i++ {
			if n.slots[c>>(cellLenBits+2*i)&3] != nb {
				continue
			}
			if l == 1 {
				n.cells[p] = 0
				n.tableSet.Remove(p)
				return true
			}
			// Drop slot field i: the fields above it shift down one.
			shift := cellLenBits + 2*i
			low := c & (1<<shift - 1) &^ cellLenMask
			n.cells[p] = low | c>>(shift+2)<<shift | uint16(l-1)
			return true
		}
		return false
	}
	d := n.dirOver[p]
	for i, x := range d {
		if x == nb {
			d = append(d[:i], d[i+1:]...)
			if len(d) == 0 {
				delete(n.dirOver, p)
				n.cells[p] = 0
				n.tableSet.Remove(p)
			} else {
				n.dirOver[p] = d
			}
			return true
		}
	}
	return false
}

// KnownPatterns returns every pattern with local or remote interest,
// sorted — the "whole subscription table" the push gossiper draws from
// (paper Sec. III-B). The slice is a cached snapshot, rebuilt only
// after subscription state changed; callers must not mutate it.
func (n *Node) KnownPatterns() []ident.PatternID {
	if n.known == nil {
		union := n.localSet.Union(n.tableSet)
		n.known = union.AppendTo(make([]ident.PatternID, 0, union.Len())) // ascending == sorted
	}
	return n.known
}

// invalidateKnown marks the KnownPatterns cache stale. Every mutation
// of the local set or the interest table goes through it.
func (n *Node) invalidateKnown() { n.known = nil }

// HasReceived reports whether the event was already delivered locally
// (through routing or recovery) or published here.
func (n *Node) HasReceived(id ident.EventID) bool { return n.received.Has(id) }

// ReceivedCount returns the number of locally received events.
func (n *Node) ReceivedCount() int { return n.received.Len() }

// SendTree transmits msg to a direct neighbor on the overlay.
func (n *Node) SendTree(to ident.NodeID, msg wire.Message) { n.net.Send(n.id, to, msg) }

// SendOOB transmits msg to any dispatcher on the out-of-band channel.
func (n *Node) SendOOB(to ident.NodeID, msg wire.Message) { n.net.SendOOB(n.id, to, msg) }

// Publish stamps and routes a new event with the given content and
// synthetic payload size, returning the stamped event. Sequence tags
// are assigned for every content pattern with known interest, as the
// paper prescribes: the source can do this because subscription
// forwarding makes subscriptions known to all dispatchers.
func (n *Node) Publish(content matching.Content, payload uint16) *wire.Event {
	n.nextSeq++
	ev := &wire.Event{
		ID:          ident.EventID{Source: n.id, Seq: n.nextSeq},
		Content:     content,
		PublishedAt: int64(n.k.Now()),
		PayloadLen:  payload,
	}
	for _, p := range content {
		if n.IsLocal(p) || n.hasDirs(p) {
			if int(p) >= len(n.patSeq) {
				grown := make([]uint32, (int(p)+ident.PatternSetCap)&^(ident.PatternSetCap-1))
				copy(grown, n.patSeq)
				n.patSeq = grown
			}
			n.patSeq[p]++
			ev.Tags = append(ev.Tags, ident.PatternSeq{Pattern: p, Seq: n.patSeq[p]})
		}
	}
	if n.cfg.RecordRoutes {
		ev.Route = []ident.NodeID{n.id}
	}
	n.received.Add(ev.ID)
	n.recovery.OnPublish(ev)
	if n.LocalMatch(content) && n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(n.id, ev, false)
	}
	n.forward(ev, ident.None)
	return ev
}

// forward routes ev to every neighbor with matching interest, except
// the one it came from.
func (n *Node) forward(ev *wire.Event, from ident.NodeID) {
	sent := n.fwdScratch[:0]
	var buf DirBuf
	for _, p := range ev.Content {
		for _, nb := range n.InterestDirections(&buf, p) {
			if nb == from || slices.Contains(sent, nb) {
				continue
			}
			sent = append(sent, nb)
			out := ev
			if n.cfg.RecordRoutes && from != ident.None {
				out = ev.Clone()
				out.Route = append(out.Route, n.id)
			}
			n.SendTree(nb, out)
		}
	}
	n.fwdScratch = sent
}

// HandleMessage implements network.Handler.
func (n *Node) HandleMessage(from ident.NodeID, msg wire.Message, oob bool) {
	switch m := msg.(type) {
	case *wire.Event:
		if oob {
			panic(fmt.Sprintf("pubsub: raw event %v arrived out-of-band at %v", m.ID, n.id))
		}
		n.handleEvent(m, from)
	case *wire.Subscribe:
		n.addInterest(m.Pattern, from)
	case *wire.Unsubscribe:
		n.removeInterest(m.Pattern, from)
	default:
		n.recovery.HandleRecovery(from, msg, oob)
	}
}

func (n *Node) handleEvent(ev *wire.Event, from ident.NodeID) {
	if n.cfg.DedupForward {
		// First arrival wins: duplicates (which cyclic overlays produce
		// by design) are dropped without delivery or re-forwarding.
		if !n.received.Add(ev.ID) {
			return
		}
		if n.LocalMatch(ev.Content) {
			if n.cfg.OnDeliver != nil {
				n.cfg.OnDeliver(n.id, ev, false)
			}
			n.recovery.OnDeliver(ev, from)
		}
		n.forward(ev, from)
		return
	}
	if n.LocalMatch(ev.Content) && n.received.Add(ev.ID) {
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(n.id, ev, false)
		}
		n.recovery.OnDeliver(ev, from)
	}
	n.forward(ev, from)
}

// DeliverRecovered injects an event obtained through the epidemic
// recovery path. It reports whether the event was new; duplicates are
// ignored. Recovered events are not re-forwarded on the tree: recovery
// is a per-dispatcher affair (each interested dispatcher gossips for
// itself), but the event does enter the local cache via the recovery
// engine, so this dispatcher can serve it to others.
func (n *Node) DeliverRecovered(ev *wire.Event) bool {
	if !n.LocalMatch(ev.Content) {
		return false
	}
	if !n.received.Add(ev.ID) {
		return false
	}
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(n.id, ev, true)
	}
	return true
}

// advertisedTo reports whether this node has (or would have) advertised
// pattern p toward neighbor nb: true when there is local interest or
// interest from any direction other than nb.
func (n *Node) advertisedTo(p ident.PatternID, nb ident.NodeID) bool {
	if n.IsLocal(p) {
		return true
	}
	var buf DirBuf
	for _, d := range n.InterestDirections(&buf, p) {
		if d != nb {
			return true
		}
	}
	return false
}

// Subscribe registers a local subscription and propagates it.
func (n *Node) Subscribe(p ident.PatternID) {
	if n.IsLocal(p) {
		return
	}
	for _, nb := range n.neighbors {
		if !n.advertisedTo(p, nb) {
			n.SendTree(nb, &wire.Subscribe{Pattern: p})
		}
	}
	n.setLocal(p)
	n.invalidateKnown()
}

// Unsubscribe removes a local subscription and propagates the removal.
func (n *Node) Unsubscribe(p ident.PatternID) {
	if !n.clearLocal(p) {
		return
	}
	n.invalidateKnown()
	for _, nb := range n.neighbors {
		if !n.advertisedTo(p, nb) {
			n.SendTree(nb, &wire.Unsubscribe{Pattern: p})
		}
	}
}

// SetLocalInstant installs a local subscription without propagation.
// Scenario setup uses it together with SetTableInstant to lay down the
// stable initial subscription state (the paper runs with stable
// subscription information, Sec. IV-A).
func (n *Node) SetLocalInstant(ps []ident.PatternID) {
	for _, p := range ps {
		n.setLocal(p)
	}
	n.invalidateKnown()
}

// SetTableInstant installs a remote-interest direction without
// propagation (scenario setup only).
func (n *Node) SetTableInstant(p ident.PatternID, dir ident.NodeID) {
	var buf DirBuf
	for _, x := range n.InterestDirections(&buf, p) {
		if x == dir {
			return
		}
	}
	n.addDir(p, dir)
	n.invalidateKnown()
}

// addInterest records that neighbor from is interested in p and
// re-propagates the subscription where it is news.
func (n *Node) addInterest(p ident.PatternID, from ident.NodeID) {
	var buf DirBuf
	for _, x := range n.InterestDirections(&buf, p) {
		if x == from {
			return // duplicate advertisement
		}
	}
	for _, nb := range n.neighbors {
		if nb != from && !n.advertisedTo(p, nb) {
			n.SendTree(nb, &wire.Subscribe{Pattern: p})
		}
	}
	n.addDir(p, from)
	n.invalidateKnown()
}

// removeInterest drops neighbor from's interest in p and propagates
// unsubscriptions where no interest remains.
func (n *Node) removeInterest(p ident.PatternID, from ident.NodeID) {
	if !n.removeDir(p, from) {
		return
	}
	n.invalidateKnown()
	for _, nb := range n.neighbors {
		if nb != from && !n.advertisedTo(p, nb) {
			n.SendTree(nb, &wire.Unsubscribe{Pattern: p})
		}
	}
}

// OnLinkDown reacts to the loss of the link toward nbr: the neighbor is
// forgotten and every route through it is flushed, propagating
// unsubscriptions into the rest of the component.
func (n *Node) OnLinkDown(nbr ident.NodeID) {
	n.linkEpoch++
	n.neighbors = removeNodeID(n.neighbors, nbr)
	var stale []ident.PatternID
	stale = n.tableSet.AppendTo(stale) // ascending == the sorted order used before
	var buf DirBuf
	for _, p := range stale {
		if slices.Contains(n.InterestDirections(&buf, p), nbr) {
			n.removeInterest(p, nbr)
		}
	}
	// No row names nbr any more, so its slot can be handed out again.
	if s := n.slotOf(nbr); s >= 0 {
		n.slots[s] = ident.None
	}
}

// OnLinkUp reacts to a new link toward nbr: the node advertises every
// interest it holds (local, or learned from other directions), exactly
// as a freshly issued subscription would propagate. nbr takes the first
// free adjacency slot.
func (n *Node) OnLinkUp(nbr ident.NodeID) {
	n.linkEpoch++
	n.neighbors = append(n.neighbors, nbr)
	if s := n.slotOf(ident.None); s >= 0 {
		n.slots[s] = nbr
	} else {
		n.slots = append(n.slots, nbr)
	}
	for _, p := range n.KnownPatterns() {
		if n.advertisedTo(p, nbr) {
			n.SendTree(nbr, &wire.Subscribe{Pattern: p})
		}
	}
}

// OnNodeDown models a crash of this dispatcher: the process loses its
// links and everything it learned from the network — the neighbor set
// and the whole remote-interest table. Nothing is propagated (a dead
// process cannot send); surviving neighbors flush their own routes via
// their OnLinkDown. Local subscriptions persist: they are this
// dispatcher's configuration, not learned state, and are re-advertised
// when the node rejoins.
func (n *Node) OnNodeDown() {
	n.neighbors = n.neighbors[:0]
	n.slots = n.slots[:0]
	clear(n.cells)
	n.dirOver = nil
	n.tableSet = ident.PatternSet{}
	n.invalidateKnown()
}

// OnNodeUp marks the dispatcher restarted after OnNodeDown. Routing
// state was already dropped at crash time; the subscription-table
// resync happens link by link as the node rejoins: OnLinkUp on this
// side re-advertises its local subscriptions, OnLinkUp on the attach
// side re-advertises the component's known interests back.
func (n *Node) OnNodeUp() {
	n.invalidateKnown()
}

func insertSorted(s []ident.PatternID, p ident.PatternID) []ident.PatternID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= p })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

func removeSorted(s []ident.PatternID, p ident.PatternID) []ident.PatternID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= p })
	if i < len(s) && s[i] == p {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

func removeNodeID(s []ident.NodeID, n ident.NodeID) []ident.NodeID {
	for i, x := range s {
		if x == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
