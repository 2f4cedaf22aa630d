// Package check is the runtime invariant monitor of the simulator: a
// pluggable subsystem that observes a run through synchronous hooks —
// the network's traffic observer and arrival callback, the topology's
// mutation hook, and the scenario's delivery chain — and fails fast
// with a minimal reproducer (seed + event id + violation site) the
// moment the execution violates one of the protocol's implicit
// invariants.
//
// Five monitors are available, individually selectable via Options:
//
//   - FIFO: per-directed-link FIFO ordering and serialization-delay
//     consistency. The monitor mirrors the channel model independently
//     (per-(link, incarnation) busy times, a FIFO queue of expected
//     arrival times) and requires every arrival to complete at exactly
//     the mirrored time, in the mirrored order; out-of-band arrivals
//     must respect the distance-derived delay bounds.
//   - Delivery: no delivery to a non-matching subscriber, none to a
//     crashed one, and at most one delivery per (node, event).
//   - Topology: after every structural mutation the overlay is still a
//     degree-bounded acyclic forest with symmetric, duplicate-free
//     adjacency; once the run ends (and repair has had FinalGrace to
//     settle) the live nodes must form a single connected tree.
//   - Recovery: every gossip-recovered delivery is causally justified
//     — the event was genuinely dropped somewhere upstream, or the
//     overlay was disrupted near its publish time (see
//     DisruptionSlack); engine buffers pass their structural audits
//     (LostBuffer capacity/TTL/index invariants) at the end of the
//     run.
//   - Conservation: no event is delivered to more subscribers than
//     matched it when it was published, and the checker's own
//     delivered/recovered accounting reconciles exactly with the
//     metrics.DeliveryTracker totals.
//
// Two further monitors cover the extensions beyond the paper: the
// Convergence monitor (self-stabilizing repair, DESIGN.md Sec. 13) and
// the Adaptation monitor (closed-loop knob control, DESIGN.md Sec. 14:
// knob bounds, switch dwell, estimator sanity).
//
// The checker is deliberately passive: it never draws from kernel RNG
// streams, never schedules kernel events, and never mutates protocol
// state, so enabling it cannot change the trajectory of a
// deterministic run — golden metrics stay bit-identical with checking
// on or off. When no checker is installed the hooks cost one nil
// check each, and the hot paths stay allocation-free.
package check

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Options selects monitors and tunes failure handling. The zero value
// checks nothing; use All for the full set.
type Options struct {
	// FIFO enables the per-directed-link ordering/serialization monitor.
	FIFO bool
	// Delivery enables the matching/down/duplicate delivery monitor.
	Delivery bool
	// Topology enables the structural overlay monitor.
	Topology bool
	// Recovery enables the recovery-causality monitor and end-of-run
	// engine buffer audits.
	Recovery bool
	// Conservation enables per-event delivery-count bounds and the
	// final reconciliation against the DeliveryTracker.
	Conservation bool
	// Convergence enables the repair-convergence monitor: after the
	// last injected fault (Env.LastFaultAt), the overlay must reach —
	// and then retain — the legality of its kind (connected,
	// degree-bounded, acyclic for trees, judged over live nodes) within
	// ConvergenceBound. Because the checker is passive it cannot sample
	// the overlay on a clock; instead it verifies the equivalent pair
	// at Finish: no topology mutation happened after
	// LastFaultAt+ConvergenceBound (quiescence), and the final overlay
	// is legal — together these imply legality was reached within the
	// bound and held through the end of the run. Runs whose last fault
	// falls within ConvergenceBound of the end are not judged.
	Convergence bool
	// Adaptation enables the adaptive-controller monitor: knob values
	// inside their configured bounds at every round boundary,
	// structural switches (hybrid mode, walk degradation) separated by
	// at least the dwell time, estimator state finite and in range.
	// Inert unless the run wires OnAdaptRound (static runs never do).
	Adaptation bool

	// KeepGoing collects violations instead of stopping the run at the
	// first one. Fail-fast (the default) asks the kernel to stop, so
	// the reproducer points at the earliest inconsistent state.
	KeepGoing bool
	// MaxViolations bounds the recorded violations (default 16).
	MaxViolations int
	// FinalGrace is how recently the last topology mutation may have
	// happened for the final connectivity check to be skipped: a run
	// that ends mid-repair is not a violation. Default 500ms.
	FinalGrace sim.Time
	// DisruptionSlack widens the window around a topology disruption
	// during which published events may legitimately need recovery
	// without a recorded channel loss (routing state is re-converging).
	// Default 500ms.
	DisruptionSlack sim.Time
	// ConvergenceBound is how long after the last fault the repair
	// machinery (oracle or self-stabilizing) may keep mutating the
	// overlay before the Convergence monitor calls it non-convergent.
	// Default 2s; self-stabilizing runs need roughly
	// repair.Config.TTL·Period plus propagation slack.
	ConvergenceBound sim.Time
}

// All returns Options with every monitor enabled and fail-fast on.
func All() *Options {
	return &Options{FIFO: true, Delivery: true, Topology: true, Recovery: true, Conservation: true, Adaptation: true}
}

// Violation is one observed invariant breach.
type Violation struct {
	// Monitor names the monitor that fired (fifo, delivery, topology,
	// recovery, conservation).
	Monitor string
	// Site identifies the specific check within the monitor.
	Site string
	// At is the virtual time of the observation.
	At sim.Time
	// Seed and Algorithm identify the run for replay.
	Seed      int64
	Algorithm string
	// Node and Peer locate the violation (Peer is ident.None when only
	// one node is involved).
	Node, Peer ident.NodeID
	// Event is the involved event, when any (zero otherwise).
	Event ident.EventID
	// Detail is the human-readable expectation vs observation.
	Detail string
}

// Repro returns the minimal reproducer line: everything needed to
// re-run the failing execution and land on this violation again.
func (v Violation) Repro() string {
	return fmt.Sprintf("seed=%d algo=%s t=%v site=%s/%s node=%v event=%v",
		v.Seed, v.Algorithm, v.At, v.Monitor, v.Site, v.Node, v.Event)
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s/%s] t=%v node=%v", v.Monitor, v.Site, v.At, v.Node)
	if v.Peer != ident.None {
		fmt.Fprintf(&b, " peer=%v", v.Peer)
	}
	if v.Event != (ident.EventID{}) {
		fmt.Fprintf(&b, " %v", v.Event)
	}
	fmt.Fprintf(&b, ": %s (repro: %s)", v.Detail, v.Repro())
	return b.String()
}

// Error is the failure a checked run returns: the recorded violations,
// earliest first.
type Error struct {
	Violations []Violation
}

// Error implements error.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "check: no violations"
	}
	if len(e.Violations) == 1 {
		return "check: invariant violation: " + e.Violations[0].String()
	}
	return fmt.Sprintf("check: %d invariant violations, first: %s",
		len(e.Violations), e.Violations[0].String())
}

// Topology is the read-only overlay view the checker inspects.
// *topology.Tree implements it; tests substitute corrupt fakes to
// exercise the violation paths a real tree never produces.
type Topology interface {
	N() int
	MaxDegree() int
	Degree(v ident.NodeID) int
	Neighbors(v ident.NodeID) []ident.NodeID
	HasLink(a, b ident.NodeID) bool
	NeighborSlot(from, to ident.NodeID) int
	LinkIncarnation(a, b ident.NodeID) uint64
	// Kind is the overlay family the shape checks are judged against:
	// only KindTree overlays are required to be acyclic.
	Kind() topology.Kind
}

var _ Topology = (*topology.Tree)(nil)

// Env is the read-only view of the run the checker observes. All
// function fields must be safe to call from inside kernel events; nil
// fields disable the checks that need them.
type Env struct {
	// Seed and Algorithm label violations for replay.
	Seed      int64
	Algorithm string
	// N is the number of dispatchers.
	N int
	// Now reads the virtual clock.
	Now func() sim.Time
	// Stop halts the run (fail-fast). May be nil.
	Stop func()
	// Topo is the overlay under test.
	Topo Topology
	// NetConfig is the channel model the FIFO monitor mirrors.
	NetConfig network.Config
	// NodeDown reports whether a dispatcher is currently crashed
	// (the network's view). May be nil when the run injects no faults.
	NodeDown func(ident.NodeID) bool
	// WasDownAt reports whether a dispatcher was crashed at a past
	// instant; it must match the filter the delivery accounting uses.
	// May be nil.
	WasDownAt func(ident.NodeID, sim.Time) bool
	// LastFaultAt reports the virtual time of the most recent injected
	// disturbance (crash, restart, link cut/restore); the Convergence
	// monitor anchors its bound here. May be nil (treated as time 0 —
	// an adversarial initial configuration counts as a fault before
	// the run started).
	LastFaultAt func() sim.Time
	// Adapt is the normalized adaptive-controller config of the run,
	// when adaptation is enabled; the Adaptation monitor takes its knob
	// bounds and dwell time from it. May be nil (bounds and dwell
	// checks are skipped; estimator sanity is still verified).
	Adapt *adapt.Config
}

// Checker is one run's invariant monitor. Build it with New, wire its
// hooks (network observer + arrival observer, topology mutation hook,
// delivery and publish callbacks), and call Finish once the run ends.
// A Checker is single-run and not safe for concurrent use — exactly
// like the kernel whose execution it observes.
type Checker struct {
	opts Options
	env  Env

	violations []Violation
	truncated  int  // violations dropped past MaxViolations
	stopped    bool // fail-fast tripped; hooks go quiet

	subs []map[ident.PatternID]bool // per-node subscription sets

	fifo fifoMirror

	// events registers every published event for the delivery,
	// recovery, and conservation monitors.
	events    map[ident.EventID]*eventInfo
	delivered map[nodeEvent]struct{}

	// lossSeen records event IDs observed dropping on a channel —
	// direct causal evidence for a later recovery.
	lossSeen map[ident.EventID]struct{}

	// lastMutation/anyMutation track overlay disruption for the
	// recovery monitor's slack window and the final topology check.
	lastMutation sim.Time
	anyMutation  bool

	// counted*/expected* are the checker's independent delivery
	// accounting, reconciled against the tracker at Finish.
	countedDelivered uint64
	countedRecovered uint64
	expectedTotal    uint64

	// adaptStates is the per-node memory of the Adaptation monitor,
	// allocated lazily on the first observed controller snapshot.
	adaptStates map[ident.NodeID]*adaptState

	audits []auditFn
}

type auditFn struct {
	name string
	fn   func() error
}

// eventInfo is the per-published-event state of the monitors.
type eventInfo struct {
	publishedAt sim.Time
	publisher   ident.NodeID
	expected    int // matching subscribers up at publish (sans publisher)
	counted     int // deliveries the tracker also counts
}

// nodeEvent keys the duplicate-delivery set.
type nodeEvent struct {
	node ident.NodeID
	ev   ident.EventID
}

// New builds a checker for one run. opts must not be nil.
func New(opts *Options, env Env) *Checker {
	o := *opts
	if o.MaxViolations <= 0 {
		o.MaxViolations = 16
	}
	if o.FinalGrace <= 0 {
		o.FinalGrace = 500 * time.Millisecond
	}
	if o.DisruptionSlack <= 0 {
		o.DisruptionSlack = 500 * time.Millisecond
	}
	if o.ConvergenceBound <= 0 {
		o.ConvergenceBound = 2 * time.Second
	}
	c := &Checker{opts: o, env: env}
	if o.FIFO {
		c.fifo.init()
	}
	if o.Delivery || o.Recovery || o.Conservation {
		c.events = make(map[ident.EventID]*eventInfo)
		c.delivered = make(map[nodeEvent]struct{})
	}
	if o.Recovery {
		c.lossSeen = make(map[ident.EventID]struct{})
	}
	return c
}

// SetSubscriptions installs the per-node subscription sets the
// delivery monitor validates against. Call it once the scenario has
// drawn them, before the run starts.
func (c *Checker) SetSubscriptions(subs [][]ident.PatternID) {
	c.subs = make([]map[ident.PatternID]bool, len(subs))
	for i, ps := range subs {
		set := make(map[ident.PatternID]bool, len(ps))
		for _, p := range ps {
			set[p] = true
		}
		c.subs[i] = set
	}
}

// AddAudit registers an end-of-run audit (e.g. a recovery engine's
// buffer invariants) run by Finish when the Recovery monitor is on.
func (c *Checker) AddAudit(name string, fn func() error) {
	c.audits = append(c.audits, auditFn{name: name, fn: fn})
}

// report records a violation and, unless KeepGoing, stops the run.
func (c *Checker) report(monitor, site string, node, peer ident.NodeID, ev ident.EventID, format string, args ...any) {
	if len(c.violations) >= c.opts.MaxViolations {
		c.truncated++
		return
	}
	v := Violation{
		Monitor:   monitor,
		Site:      site,
		Seed:      c.env.Seed,
		Algorithm: c.env.Algorithm,
		Node:      node,
		Peer:      peer,
		Event:     ev,
		Detail:    fmt.Sprintf(format, args...),
	}
	if c.env.Now != nil {
		v.At = c.env.Now()
	}
	c.violations = append(c.violations, v)
	if !c.opts.KeepGoing {
		c.stopped = true
		if c.env.Stop != nil {
			c.env.Stop()
		}
	}
}

// Violations returns the recorded violations, earliest first.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when no violation was recorded, or an *Error
// carrying all of them.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return &Error{Violations: c.violations}
}

// Finish runs the end-of-run checks — final topology shape, engine
// buffer audits, and the conservation reconciliation against tracker
// (which may be nil) — and returns the run's verdict. Call it after
// the kernel drained.
// The reconciliation needs only Totals(), which both metrics modes
// report exactly, so it works against either tracker implementation.
func (c *Checker) Finish(tracker metrics.Tracker) error {
	if !c.stopped {
		if c.opts.Topology {
			c.finishTopology()
		}
		if c.opts.Convergence {
			c.finishConvergence()
		}
		if c.opts.Recovery {
			for _, a := range c.audits {
				if err := a.fn(); err != nil {
					c.report("recovery", "buffer-audit", ident.None, ident.None, ident.EventID{},
						"%s: %v", a.name, err)
				}
			}
		}
		if c.opts.Conservation && tracker != nil {
			expected, delivered, recovered := tracker.Totals()
			if expected != c.expectedTotal || delivered != c.countedDelivered || recovered != c.countedRecovered {
				c.report("conservation", "tracker-reconciliation", ident.None, ident.None, ident.EventID{},
					"tracker totals (expected=%d delivered=%d recovered=%d) != checker totals (expected=%d delivered=%d recovered=%d)",
					expected, delivered, recovered,
					c.expectedTotal, c.countedDelivered, c.countedRecovered)
			}
		}
	}
	return c.Err()
}
