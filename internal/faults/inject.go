package faults

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Gossiper is the per-dispatcher recovery engine hook the injector
// pauses across downtime. core.Engine satisfies it.
type Gossiper interface {
	Stop()
	Start()
}

// Config wires an Injector into one simulation run.
type Config struct {
	Kernel *sim.Kernel
	Topo   *topology.Tree
	Net    *network.Network
	Nodes  []*pubsub.Node
	// Engines holds the recovery engine of each dispatcher, indexed
	// like Nodes; nil entries (or an empty slice, for NoRecovery runs)
	// mean no engine to pause.
	Engines []Gossiper
	// RepairDelay is how long the injector waits before healing the
	// survivors around a crash or replacing a link LinkBreak broke, and
	// between retries when degree slots are temporarily exhausted.
	RepairDelay sim.Time
	// MaxHealRetries bounds how many times one heal reschedules itself
	// when a component cannot merge (all survivors degree-saturated)
	// before giving up and counting Stats.RepairAbandoned. Zero means
	// DefaultMaxHealRetries; an abandoned merge is picked up by the
	// next crash's heal touching the same components, or never — which
	// is exactly what the counter surfaces.
	MaxHealRetries int
	// DisableHealing switches the injector to pure fault mode for the
	// self-stabilizing repair protocol: crashes no longer schedule the
	// omniscient ReconnectAround heal, LinkBreak schedules no
	// replacement link, and restarts bring the node back up isolated (no
	// oracle attach point) — the decentralized protocol owns all
	// re-linking.
	DisableHealing bool
	// Trace, when non-nil, records NodeDown/NodeUp and the injector's
	// LinkDown/LinkUp transitions.
	Trace *trace.Ring
}

// DefaultMaxHealRetries is the heal retry cap when
// Config.MaxHealRetries is zero. At the default 100ms RepairDelay it
// allows ~6.4s of retrying, far beyond any transient degree
// exhaustion seen in the churn plans.
const DefaultMaxHealRetries = 64

// Stats counts what the injector actually did.
type Stats struct {
	// Crashes and Restarts count completed node transitions.
	Crashes, Restarts uint64
	// LinkFlaps and Partitions count links cut by the respective kinds.
	LinkFlaps, Partitions uint64
	// LossModelSwitches counts SetLossModel actions applied.
	LossModelSwitches uint64
	// LinkBreaks and SubSwaps count generated actions applied;
	// BreakSkips counts LinkBreak epochs that found no link to break.
	LinkBreaks, SubSwaps, BreakSkips uint64
	// Skipped counts actions that could not apply: crash of an
	// already-down node, restart of an up node, flap of an absent link,
	// partition of disconnected endpoints, a swap that found no target.
	Skipped uint64
	// RepairAbandoned counts heals that exhausted MaxHealRetries with
	// components still unmerged (all survivors degree-saturated for the
	// whole retry budget).
	RepairAbandoned uint64
}

// interval is one downtime span of a node; to < 0 marks still-down.
type interval struct {
	from, to sim.Time
}

// Injector executes planned and generated actions in the event loop.
type Injector struct {
	cfg  Config
	rng  *rand.Rand
	reco *rand.Rand // LinkBreak draws and their replacement links
	chur *rand.Rand // SubSwap draws and the churn gaps
	// SubSwap's audience index, pattern universe and replacement draw.
	subIndex    *pubsub.SubscriberIndex
	subPatterns int
	subDraw     func(*rand.Rand) ident.PatternID
	down        []bool
	hist        [][]interval
	st          Stats
	// lastFault is the virtual time of the most recent injector-driven
	// disturbance (crash, restart, cut, restore, break) — no repairs.
	// The convergence monitor anchors its bound here.
	lastFault sim.Time
}

// NewInjector builds an injector over one run's components. Its
// randomness comes from dedicated kernel streams, so fault execution
// never perturbs the draw sequences of the workload, topology, or
// channel streams.
func NewInjector(cfg Config) *Injector {
	if cfg.MaxHealRetries <= 0 {
		cfg.MaxHealRetries = DefaultMaxHealRetries
	}
	n := len(cfg.Nodes)
	return &Injector{
		cfg:  cfg,
		rng:  cfg.Kernel.NewStream(0x6661756c), // "faul"
		down: make([]bool, n),
		hist: make([][]interval, n),
	}
}

// Schedule validates the plan and registers every action with the
// kernel. Call before Kernel.Run, at virtual time zero.
func (in *Injector) Schedule(plan *Plan) error {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(len(in.cfg.Nodes)); err != nil {
		return err
	}
	for _, a := range plan.Actions {
		a := a
		in.cfg.Kernel.At(a.At, func() { in.apply(a) })
	}
	return nil
}

// Reconfigure arms the paper's reconfiguration model (Sec. IV-A): a
// LinkBreak every rho, the first at rho. The generators take their
// place in the kernel's tie-break order where they are armed.
func (in *Injector) Reconfigure(rho sim.Time) {
	in.reco = in.cfg.Kernel.NewStream(0x7265636f) // "reco"
	in.generate(LinkBreak, func() sim.Time { return rho })
}

// ChurnSubscriptions arms subscription churn: SubSwaps with Poisson
// gaps at rate swaps per second. Each swap keeps index in step and
// draws replacements from draw over a universe of patterns.
func (in *Injector) ChurnSubscriptions(rate float64, index *pubsub.SubscriberIndex, patterns int, draw func(*rand.Rand) ident.PatternID) {
	in.chur = in.cfg.Kernel.NewStream(0x63687572) // "chur"
	in.subIndex, in.subPatterns, in.subDraw = index, patterns, draw
	meanGap := float64(time.Second) / rate
	in.generate(SubSwap, func() sim.Time { return sim.Time(in.chur.ExpFloat64() * meanGap) })
}

// generate arms a lazy generator: each firing applies one action of
// kind, then draws the gap to the next — nothing is drawn ahead.
func (in *Injector) generate(kind Kind, gap func() sim.Time) {
	var fire func()
	fire = func() {
		in.apply(Action{Kind: kind})
		in.cfg.Kernel.After(gap(), fire)
	}
	in.cfg.Kernel.After(gap(), fire)
}

// Stats returns what the injector has done so far.
func (in *Injector) Stats() Stats { return in.st }

// LastFaultAt returns the virtual time of the most recent disturbance
// the injector applied (crash, restart, link cut, restore or break) —
// zero when nothing has happened yet. Healing is not a disturbance.
func (in *Injector) LastFaultAt() sim.Time { return in.lastFault }

// IsDown reports whether the dispatcher is currently crashed.
func (in *Injector) IsDown(v ident.NodeID) bool { return in.down[v] }

// WasDownAt reports whether the dispatcher was down at virtual time t.
func (in *Injector) WasDownAt(v ident.NodeID, t sim.Time) bool {
	for _, iv := range in.hist[v] {
		if t >= iv.from && (iv.to < 0 || t < iv.to) {
			return true
		}
	}
	return false
}

// Downtime returns the cumulative dispatcher downtime up to end; spans
// still open at end are counted up to end.
func (in *Injector) Downtime(end sim.Time) sim.Time {
	var total sim.Time
	for _, ivs := range in.hist {
		for _, iv := range ivs {
			to := iv.to
			if to < 0 || to > end {
				to = end
			}
			if to > iv.from {
				total += to - iv.from
			}
		}
	}
	return total
}

func (in *Injector) apply(a Action) {
	switch a.Kind {
	case NodeCrash:
		in.crash(a.Node, a.Downtime)
	case NodeRestart:
		in.restart(a.Node)
	case LinkFlap:
		in.cut(a.A, a.B, a.Downtime, &in.st.LinkFlaps)
	case Partition:
		in.partition(a)
	case SetLossModel:
		in.cfg.Net.SetLossModel(a.NewModel(in.cfg.Kernel.NewStream))
		in.st.LossModelSwitches++
	case LinkBreak:
		in.breakLink()
	case SubSwap:
		in.swap()
	}
}

func (in *Injector) engine(v ident.NodeID) Gossiper {
	if int(v) < len(in.cfg.Engines) {
		return in.cfg.Engines[v]
	}
	return nil
}

func (in *Injector) record(k trace.Kind, node, peer ident.NodeID) {
	if in.cfg.Trace != nil {
		in.cfg.Trace.Add(trace.Record{At: in.cfg.Kernel.Now(), Kind: k, Node: node, Peer: peer})
	}
}

// LinkUp announces the new link a-b to the trace and to both endpoints,
// which resync subscriptions over it. The repair protocol reports here.
func (in *Injector) LinkUp(a, b ident.NodeID) {
	in.record(trace.LinkUp, a, b)
	in.cfg.Nodes[a].OnLinkUp(b)
	in.cfg.Nodes[b].OnLinkUp(a)
}

// LinkDown announces the removal of link a-b, like LinkUp.
func (in *Injector) LinkDown(a, b ident.NodeID) {
	in.record(trace.LinkDown, a, b)
	in.cfg.Nodes[a].OnLinkDown(b)
	in.cfg.Nodes[b].OnLinkDown(a)
}

// crash takes dispatcher v down and, when downtime > 0, schedules its
// restart. The survivors left disconnected by v's disappearance are
// healed after RepairDelay.
func (in *Injector) crash(v ident.NodeID, downtime sim.Time) {
	if in.down[v] {
		in.st.Skipped++
		return
	}
	now := in.cfg.Kernel.Now()
	in.down[v] = true
	in.hist[v] = append(in.hist[v], interval{from: now, to: -1})
	in.st.Crashes++
	in.lastFault = now
	in.cfg.Net.SetNodeDown(v, true)
	if e := in.engine(v); e != nil {
		e.Stop()
	}
	removed := in.cfg.Topo.RemoveNode(v)
	in.cfg.Nodes[v].OnNodeDown()
	anchors := make([]ident.NodeID, 0, len(removed))
	for _, l := range removed {
		nb := l.Other(v)
		in.cfg.Nodes[nb].OnLinkDown(v)
		anchors = append(anchors, nb)
	}
	in.record(trace.NodeDown, v, ident.None)
	if len(anchors) > 1 && !in.cfg.DisableHealing {
		in.cfg.Kernel.After(in.cfg.RepairDelay, func() { in.heal(anchors, 0) })
	}
	if downtime > 0 {
		in.cfg.Kernel.After(downtime, func() { in.restart(v) })
	}
}

// heal merges the surviving components around a crash, retrying while
// degree slots are exhausted by overlapping reconfigurations. attempt
// counts retries so far: a component that cannot merge within
// MaxHealRetries is abandoned (Stats.RepairAbandoned) instead of
// rescheduling forever.
func (in *Injector) heal(anchors []ident.NodeID, attempt int) {
	live := anchors[:0]
	for _, a := range anchors {
		if !in.down[a] {
			live = append(live, a)
		}
	}
	if len(live) < 2 {
		return
	}
	added, err := in.cfg.Topo.ReconnectAround(live, in.IsDown, in.rng)
	for _, l := range added {
		in.LinkUp(l.A, l.B)
	}
	if err != nil {
		if attempt+1 >= in.cfg.MaxHealRetries {
			in.st.RepairAbandoned++
			return
		}
		in.cfg.Kernel.After(in.cfg.RepairDelay, func() { in.heal(live, attempt+1) })
	}
}

// restart brings dispatcher v back up at a random degree-respecting
// attach point. When no attach point exists (every live node is at its
// degree limit), the node stays down and the restart retries after
// RepairDelay — downtime accounting extends accordingly, exactly as a
// real operator waiting out a full mesh would observe. With
// DisableHealing the node comes back isolated and the self-stabilizing
// protocol re-attaches it.
func (in *Injector) restart(v ident.NodeID) {
	if !in.down[v] {
		in.st.Skipped++
		return
	}
	w := ident.None
	if !in.cfg.DisableHealing {
		var cand []ident.NodeID
		for i := range in.cfg.Nodes {
			c := ident.NodeID(i)
			if c != v && !in.down[c] && in.cfg.Topo.Degree(c) < in.cfg.Topo.MaxDegree() {
				cand = append(cand, c)
			}
		}
		if len(cand) > 0 {
			w = cand[in.rng.Intn(len(cand))]
		}
		if w == ident.None || in.cfg.Topo.AddLink(v, w) != nil {
			in.cfg.Kernel.After(in.cfg.RepairDelay, func() { in.restart(v) })
			return
		}
	}
	now := in.cfg.Kernel.Now()
	in.down[v] = false
	ivs := in.hist[v]
	ivs[len(ivs)-1].to = now
	in.st.Restarts++
	in.lastFault = now
	in.cfg.Net.SetNodeDown(v, false)
	in.cfg.Nodes[v].OnNodeUp()
	if w != ident.None {
		// Subscription-table resync over the new link: v re-advertises
		// its local subscriptions; w re-advertises the component's
		// interests.
		in.cfg.Nodes[v].OnLinkUp(w)
		in.cfg.Nodes[w].OnLinkUp(v)
	}
	if e := in.engine(v); e != nil {
		e.Start()
	}
	in.record(trace.NodeUp, v, w)
}

// cut removes the link a-b and, when downtime > 0, schedules its
// restoration. counter receives the cut on success.
func (in *Injector) cut(a, b ident.NodeID, downtime sim.Time, counter *uint64) {
	if err := in.cfg.Topo.RemoveLink(a, b); err != nil {
		in.st.Skipped++
		return
	}
	*counter++
	in.lastFault = in.cfg.Kernel.Now()
	in.LinkDown(a, b)
	if downtime > 0 {
		in.cfg.Kernel.After(downtime, func() { in.restore(a, b) })
	}
}

// restore re-adds a previously cut link. A cycle error means another
// repair already reconnected the two sides — the outage is over and the
// restore is dropped; degree exhaustion retries after RepairDelay. A
// crashed endpoint also drops the restore: the node's own rejoin will
// reconnect it.
func (in *Injector) restore(a, b ident.NodeID) {
	if in.down[a] || in.down[b] {
		return
	}
	err := in.cfg.Topo.AddLink(a, b)
	switch {
	case err == nil:
		in.lastFault = in.cfg.Kernel.Now()
		in.LinkUp(a, b)
	case errors.Is(err, topology.ErrWouldCycle), errors.Is(err, topology.ErrLinkExists):
		return
	default:
		in.cfg.Kernel.After(in.cfg.RepairDelay, func() { in.restore(a, b) })
	}
}

// partition cuts the middle link of the A–B path.
func (in *Injector) partition(act Action) {
	path := in.cfg.Topo.Path(act.A, act.B)
	if len(path) < 2 {
		in.st.Skipped++
		return
	}
	mid := len(path) / 2
	in.cut(path[mid-1], path[mid], act.Downtime, &in.st.Partitions)
}

// breakLink breaks a uniformly drawn link and schedules its
// replacement. A pick that a fault or repair removed in the same
// instant is re-drawn a bounded number of times.
func (in *Injector) breakLink() {
	t := in.cfg.Topo
	for attempt := 0; attempt < 8 && t.NumLinks() > 0; attempt++ {
		broken := t.RandomLink(in.reco)
		if err := t.RemoveLink(broken.A, broken.B); err != nil {
			continue
		}
		in.st.LinkBreaks++
		in.lastFault = in.cfg.Kernel.Now()
		in.LinkDown(broken.A, broken.B)
		if !in.cfg.DisableHealing {
			in.cfg.Kernel.After(in.cfg.RepairDelay, func() { in.replace(broken) })
		}
		return
	}
	in.st.BreakSkips++
}

// replace reconnects the two components around a broken link, retrying
// after RepairDelay while overlapping reconfigurations hold every
// degree slot or the pick touches a crashed dispatcher (linking a dead
// process repairs nothing). When a heal, restore or restart rejoined
// the two sides first, the outage is over and the repair is dropped,
// as restore drops on ErrWouldCycle: retrying would only steal the
// repair of whichever later break splits the components again.
func (in *Injector) replace(broken topology.Link) {
	repl, err := in.cfg.Topo.ReplacementLink(broken, in.reco)
	if errors.Is(err, topology.ErrLinkPresent) || errors.Is(err, topology.ErrReconnected) {
		return
	}
	if err != nil || in.down[repl.A] || in.down[repl.B] || in.cfg.Topo.AddLink(repl.A, repl.B) != nil {
		in.cfg.Kernel.After(in.cfg.RepairDelay, func() { in.replace(broken) })
		return
	}
	in.LinkUp(repl.A, repl.B)
}

// swap is one SubSwap: a uniformly drawn dispatcher replaces one of its
// patterns with a fresh draw it does not hold yet, within bounded
// re-draws (under heavy skew the hot patterns are often taken).
func (in *Injector) swap() {
	v := ident.NodeID(in.chur.Intn(len(in.cfg.Nodes)))
	node := in.cfg.Nodes[v]
	local := node.LocalPatterns()
	if in.down[v] || len(local) == 0 || len(local) >= in.subPatterns {
		in.st.Skipped++
		return
	}
	old := local[in.chur.Intn(len(local))]
	for attempt := 0; attempt < 16; attempt++ {
		repl := in.subDraw(in.chur)
		if node.IsLocal(repl) {
			continue
		}
		node.Unsubscribe(old)
		node.Subscribe(repl)
		in.subIndex.Remove(old, v)
		in.subIndex.Add(repl, v)
		in.st.SubSwaps++
		return
	}
	in.st.Skipped++
}
