// Package scenario assembles the full simulated system — topology,
// network, dispatchers, recovery engines, workload, fault injector,
// metrics — from one parameter set, mirroring the simulation setting
// of the paper's Sec. IV-A, and runs it to produce the measurements of
// Sec. IV-B through IV-E. The injector makes every run-time mutation:
// reconfigurations, subscription churn and the fault plan.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Params is one simulation configuration. DefaultParams returns the
// paper's defaults (Fig. 2); tests and experiments override individual
// fields.
type Params struct {
	// Seed drives every random stream of the run.
	Seed int64
	// N is the number of dispatchers.
	N int
	// MaxDegree bounds the overlay tree's node degree.
	MaxDegree int
	// Overlay selects the overlay family: the paper's degree-bounded
	// random tree (the zero value), Barabási–Albert scale-free, or
	// Newman–Watts small-world (see internal/topology). Non-tree kinds
	// imply duplicate-suppressing event forwarding, since their
	// redundant links would otherwise orbit every event forever.
	Overlay topology.Kind
	// NumPatterns is Π, the pattern universe size.
	NumPatterns int
	// MaxMatch bounds how many patterns one event matches.
	MaxMatch int
	// PatternsPerNode is πmax: every dispatcher subscribes to exactly
	// this many distinct patterns.
	PatternsPerNode int
	// PublishRate is the per-dispatcher publish rate in events/second
	// (Poisson arrivals).
	PublishRate float64
	// Publishers restricts publishing to the first Publishers
	// dispatchers (0 = every dispatcher publishes, the paper's
	// workload). Large-N studies use it to keep per-source event
	// chains dense — and hence seqno-gap loss detection meaningful —
	// under a bounded aggregate load.
	Publishers int
	// PublishPatterns restricts published content to the first
	// PublishPatterns patterns of the universe (0 = all Π).
	// Subscriptions still draw from the full universe, so at large Π
	// this concentrates traffic on a hot slice while the rest of the
	// pattern space only loads the routing state.
	PublishPatterns int
	// PayloadBytes is the synthetic payload size stamped on events.
	PayloadBytes uint16
	// Duration is the simulated time span.
	Duration sim.Time
	// MeasureFrom/MeasureTo bound the measurement window by publish
	// time: events published outside it do not enter delivery-rate
	// statistics (they still load the system). Zero values default to
	// [1s, Duration-2s], leaving the tail room to recover.
	MeasureFrom, MeasureTo sim.Time
	// Algorithm selects the recovery variant.
	Algorithm core.Algorithm
	// Gossip carries the gossip parameters; its Algorithm field is
	// overridden by Algorithm above.
	Gossip core.Config
	// Adapt, when non-nil, enables the closed-loop adaptive controller
	// (internal/adapt) on every engine: per-node loss/churn/latency
	// estimates drive PForward, PSource, fanout, and the round period
	// inside configured bounds. Copied into Gossip.Adapt by normalize;
	// implied (with defaults) by Algorithm == core.Hybrid; ignored
	// under NoRecovery (there is no engine to adapt). Static runs
	// (nil) keep golden metrics bit-identical.
	Adapt *adapt.Config
	// Network carries the channel model (ε lives here as LossRate).
	Network network.Config
	// ReconfigInterval is ρ: every ρ the injector breaks a random link
	// (faults.LinkBreak). Zero disables reconfigurations (ρ = ∞ in the
	// paper). Tree overlay only.
	ReconfigInterval sim.Time
	// RepairDelay is how long the oracle waits before replacing a broken
	// link or healing around a crash (0.1 s in the paper; zero means 0.1 s).
	RepairDelay sim.Time
	// Repair selects how the overlay heals after injected faults:
	// RepairOracle (the zero value) keeps the injector's omniscient
	// ReconnectAround healing; RepairSelfStabilizing disables it and
	// runs the decentralized maintenance protocol of internal/repair,
	// which detects dead neighbors and re-links from local state only.
	Repair RepairMode
	// BucketWidth is the time-series bucket (by publish time).
	BucketWidth sim.Time
	// Trace, when non-nil, records protocol activity (publishes,
	// deliveries, recoveries, transmissions, losses, reconfigurations)
	// into the given ring for post-run inspection.
	Trace *trace.Ring
	// FaultPlan, when non-nil, schedules deterministic fault injection
	// (node churn, link flaps, partitions, loss-model switches) on top
	// of the run. The plan is read-only and may be shared across runs.
	FaultPlan *faults.Plan
	// NewLossModel, when non-nil, replaces the default Bernoulli
	// channel loss with a custom model built from the run's
	// deterministic stream factory (e.g. network.NewGilbertElliott for
	// bursty loss) before the run starts.
	NewLossModel func(stream func(tag int64) *rand.Rand) network.LossModel
	// Check, when non-nil, installs runtime invariant monitors for the
	// run (see internal/check). The checker is passive — it draws no
	// randomness and schedules nothing, so results are bit-identical
	// with checking on or off — and a detected violation aborts the run
	// with a *check.Error carrying a minimal reproducer.
	Check *check.Options
	// Shards is accepted and ignored: every run executes on the
	// sequential kernel. It is kept only because benchmark/sim.go sets
	// it (its sim-sharded workload compares Shards=2 against a Shards=1
	// twin), and goes with the benchmark revision of ROADMAP item 8.
	Shards int
	// MetricsMode selects the delivery-accounting implementation.
	// MetricsExact (the default) keeps the per-event tracker that
	// golden fixed-seed tests pin bit for bit; MetricsStreaming swaps
	// in O(1)-memory counters, a ring-buffer time series, and
	// reservoir-sampled latency quantiles for heavy-traffic runs
	// (DESIGN.md Sec. 11). The mode is invisible to the simulated
	// trajectory either way — both trackers are passive observers.
	MetricsMode MetricsMode
	// Workload shapes traffic beyond the paper's uniform model. The
	// zero value reproduces the paper exactly.
	Workload Workload
}

// RepairMode selects how the overlay heals after injected faults.
type RepairMode int

const (
	// RepairOracle is the fault injector's omniscient healing: it reads
	// global component structure and reconnects survivors directly.
	RepairOracle RepairMode = iota
	// RepairSelfStabilizing replaces oracle healing with the
	// decentralized protocol of internal/repair: dispatchers detect
	// dead neighbors, gossip candidate endpoints, and re-link under
	// local degree constraints, converging to a legal overlay without
	// any global view.
	RepairSelfStabilizing
)

// String names the mode for flags and result tables.
func (m RepairMode) String() string {
	switch m {
	case RepairOracle:
		return "oracle"
	case RepairSelfStabilizing:
		return "self-stabilizing"
	default:
		return fmt.Sprintf("RepairMode(%d)", int(m))
	}
}

// ParseRepairMode parses the string forms of RepairMode. The empty
// string means RepairOracle.
func ParseRepairMode(s string) (RepairMode, error) {
	switch s {
	case "", "oracle":
		return RepairOracle, nil
	case "self-stabilizing", "selfstabilizing", "self-stab", "selfstab":
		return RepairSelfStabilizing, nil
	default:
		return 0, fmt.Errorf("scenario: unknown repair mode %q (want oracle or self-stabilizing)", s)
	}
}

// MetricsMode selects a delivery-accounting implementation.
type MetricsMode int

const (
	// MetricsExact is the default per-event tracker: exact windowed
	// metrics, memory proportional to published events.
	MetricsExact MetricsMode = iota
	// MetricsStreaming is the O(1)-memory streaming engine: exact
	// totals, bucket-granular windowed metrics, reservoir-sampled
	// latency quantiles.
	MetricsStreaming
)

// Workload is the set of declarative traffic-shaping knobs layered on
// the paper's uniform workload. Every knob defaults to off; a zero
// Workload draws byte-identical random sequences to the pre-knob code,
// so fixed-seed golden runs are unaffected.
type Workload struct {
	// ZipfContent, when > 0, draws event content patterns from a
	// Zipf distribution with this exponent instead of uniformly:
	// pattern 0 is the hottest. Typical skews are 0.6–1.2.
	ZipfContent float64
	// ZipfSubscriptions, when > 0, draws subscription patterns with
	// the same popularity ranking, concentrating subscribers on the
	// patterns hot content hits.
	ZipfSubscriptions float64
	// HotPublishers, when > 0, concentrates HotShare of the aggregate
	// publish load on the first HotPublishers publishing dispatchers;
	// the remainder spreads over the rest. Must leave at least one
	// non-hot publisher.
	HotPublishers int
	// HotShare is the load fraction of the hot publishers, in (0, 1].
	// Defaults to 0.5 when HotPublishers is set.
	HotShare float64
	// SubChurnRate is the systemwide rate of subscription changes per
	// second (Poisson): each change picks a random dispatcher and swaps
	// one of its subscribed patterns for a fresh draw, propagating the
	// change through the normal (un)subscription protocol. Expected-
	// audience accounting follows the swap instantly while routing
	// tables converge at propagation speed, so delivery rate reflects
	// the real cost of churn — and can exceed 1: a dispatcher gaining
	// a subscription after an event was published is not in that
	// event's publish-time audience but may still receive it through
	// recovery. Each change is a faults.SubSwap; one aimed at a crashed
	// dispatcher is skipped. Incompatible with Check (the delivery
	// monitors assume stable subscriptions).
	SubChurnRate float64
}

// DefaultParams returns the paper's default simulation parameters
// (Fig. 2 plus the channel model of Sec. IV-A).
func DefaultParams() Params {
	return Params{
		Seed:             1,
		N:                100,
		MaxDegree:        4,
		NumPatterns:      70,
		MaxMatch:         3,
		PatternsPerNode:  2,
		PublishRate:      50,
		PayloadBytes:     0,
		Duration:         25 * time.Second,
		Algorithm:        core.NoRecovery,
		Gossip:           core.DefaultConfig(core.NoRecovery),
		Network:          network.DefaultConfig(),
		ReconfigInterval: 0,
		RepairDelay:      100 * time.Millisecond,
		BucketWidth:      100 * time.Millisecond,
	}
}

// normalize fills derived defaults and validates.
func (p Params) normalize() (Params, error) {
	if p.N < 2 {
		return p, fmt.Errorf("scenario: N = %d, need at least 2 dispatchers", p.N)
	}
	if p.PatternsPerNode < 0 || p.NumPatterns < 1 {
		return p, fmt.Errorf("scenario: invalid pattern parameters (πmax=%d, Π=%d)", p.PatternsPerNode, p.NumPatterns)
	}
	if p.PublishRate < 0 {
		return p, fmt.Errorf("scenario: negative publish rate %v", p.PublishRate)
	}
	if p.Publishers < 0 || p.Publishers > p.N {
		return p, fmt.Errorf("scenario: Publishers = %d out of [0, N=%d]", p.Publishers, p.N)
	}
	if p.PublishPatterns < 0 || p.PublishPatterns > p.NumPatterns {
		return p, fmt.Errorf("scenario: PublishPatterns = %d out of [0, Π=%d]", p.PublishPatterns, p.NumPatterns)
	}
	if p.Duration <= 0 {
		return p, fmt.Errorf("scenario: non-positive duration %v", p.Duration)
	}
	if p.MeasureFrom == 0 && p.MeasureTo == 0 {
		p.MeasureFrom = time.Second
		p.MeasureTo = p.Duration - 2*time.Second
		if p.MeasureTo <= p.MeasureFrom {
			p.MeasureFrom = 0
			p.MeasureTo = p.Duration
		}
	}
	if p.MeasureTo <= p.MeasureFrom {
		return p, fmt.Errorf("scenario: empty measurement window [%v, %v)", p.MeasureFrom, p.MeasureTo)
	}
	if p.BucketWidth <= 0 {
		p.BucketWidth = 100 * time.Millisecond
	}
	if p.MetricsMode != MetricsExact && p.MetricsMode != MetricsStreaming {
		return p, fmt.Errorf("scenario: unknown MetricsMode %d", p.MetricsMode)
	}
	switch p.Overlay {
	case topology.KindTree, topology.KindScaleFree, topology.KindSmallWorld:
	default:
		return p, fmt.Errorf("scenario: unknown overlay kind %d", int(p.Overlay))
	}
	if p.Overlay != topology.KindTree && p.ReconfigInterval > 0 {
		return p, fmt.Errorf("scenario: ReconfigInterval needs the tree overlay (ReplacementLink reconnects a two-way split; %v overlays stay connected through their redundancy)", p.Overlay)
	}
	if p.Repair != RepairOracle && p.Repair != RepairSelfStabilizing {
		return p, fmt.Errorf("scenario: unknown RepairMode %d", int(p.Repair))
	}
	if p.RepairDelay < 0 {
		return p, fmt.Errorf("scenario: negative RepairDelay %v", p.RepairDelay)
	}
	if p.RepairDelay == 0 {
		p.RepairDelay = 100 * time.Millisecond
	}
	w := p.Workload
	if w.ZipfContent < 0 || w.ZipfSubscriptions < 0 {
		return p, fmt.Errorf("scenario: negative Zipf exponent (content=%v, subscriptions=%v)", w.ZipfContent, w.ZipfSubscriptions)
	}
	if w.HotPublishers < 0 {
		return p, fmt.Errorf("scenario: negative HotPublishers %d", w.HotPublishers)
	}
	if w.HotPublishers == 0 && w.HotShare != 0 {
		return p, fmt.Errorf("scenario: HotShare = %v without HotPublishers", w.HotShare)
	}
	if w.HotPublishers > 0 {
		pubs := p.N
		if p.Publishers > 0 {
			pubs = p.Publishers
		}
		if w.HotPublishers >= pubs {
			return p, fmt.Errorf("scenario: HotPublishers = %d must leave a non-hot publisher (have %d)", w.HotPublishers, pubs)
		}
		if p.Workload.HotShare == 0 {
			p.Workload.HotShare = 0.5
		}
		if s := p.Workload.HotShare; s < 0 || s > 1 {
			return p, fmt.Errorf("scenario: HotShare = %v out of (0, 1]", s)
		}
	}
	if w.SubChurnRate < 0 {
		return p, fmt.Errorf("scenario: negative SubChurnRate %v", w.SubChurnRate)
	}
	if w.SubChurnRate > 0 && p.Check != nil {
		return p, fmt.Errorf("scenario: SubChurnRate is incompatible with Check (delivery monitors assume stable subscriptions)")
	}
	p.Gossip.Algorithm = p.Algorithm
	if p.Adapt != nil && p.Algorithm != core.NoRecovery {
		p.Gossip.Adapt = p.Adapt
	}
	if p.Algorithm != core.NoRecovery {
		g, err := p.Gossip.Normalize()
		if err != nil {
			return p, err
		}
		p.Gossip = g
	}
	return p, nil
}

// Result carries everything one run measured.
type Result struct {
	// Params echoes the normalized configuration of the run.
	Params Params
	// DeliveryRate is the delivery rate over the measurement window.
	DeliveryRate float64
	// RecoveredShare is the fraction of window deliveries that arrived
	// via recovery.
	RecoveredShare float64
	// ReceiversPerEvent is the mean number of matching subscribers per
	// event (Fig. 7's metric).
	ReceiversPerEvent float64
	// TimeSeries is the bucketed delivery-rate curve (Fig. 3's metric).
	TimeSeries []metrics.Point
	// GossipPerDispatcher is the mean number of gossip messages sent
	// per dispatcher over the run (Figs. 9, 10).
	GossipPerDispatcher float64
	// GossipEventRatio is gossip messages / event messages (Fig. 9).
	GossipEventRatio float64
	// EventsPublished counts publish operations.
	EventsPublished uint64
	// ExpectedDeliveries/Deliveries/Recoveries are raw totals over the
	// whole run (not only the window).
	ExpectedDeliveries, Deliveries, Recoveries uint64
	// EngineStats aggregates the per-node engine counters.
	EngineStats core.Stats
	// RoutedLatencyP50/P99 are publish→delivery latency percentiles of
	// normally routed deliveries.
	RoutedLatencyP50, RoutedLatencyP99 sim.Time
	// RecoveryLatencyP50/P99 are publish→delivery latency percentiles
	// of recovered deliveries — how long a subscriber stayed without an
	// event it should have had.
	RecoveryLatencyP50, RecoveryLatencyP99 sim.Time
	// MeanPathLength is the topology's mean pairwise distance at start.
	MeanPathLength float64
	// Reconfigurations counts link breakages performed.
	Reconfigurations uint64
	// ReconfigSkips counts reconfiguration epochs that failed to break
	// a link even after bounded re-draws (e.g. an empty topology).
	ReconfigSkips uint64
	// Crashes/Restarts/LinkFlaps/Partitions count the fault-plan
	// actions performed; zero without a FaultPlan.
	Crashes, Restarts, LinkFlaps, Partitions uint64
	// NodeDowntime is the cumulative dispatcher downtime injected by
	// the fault plan over the run.
	NodeDowntime sim.Time
	// RepairAbandoned counts oracle heals the injector gave up on after
	// exhausting its retry budget; zero without a FaultPlan or with
	// self-stabilizing repair.
	RepairAbandoned uint64
	// Repair carries the self-stabilizing protocol's counters; the zero
	// value under RepairOracle.
	Repair repair.Stats
	// Adapt aggregates the adaptive controllers' trajectories (knob
	// extremes, adjustment and mode/walk switch counts, mean final
	// estimates); the zero value on static runs.
	Adapt adapt.RunStats
	// SubChurns counts subscription swaps the churn workload performed;
	// zero unless Workload.SubChurnRate is set.
	SubChurns uint64
	// KernelEvents counts simulator events processed (run cost).
	KernelEvents uint64
}

// receiverCounter counts a publish's expected receivers. Its stamp
// array marks each subscriber once per call, so counting needs no
// per-publish map.
type receiverCounter struct {
	stamp []uint32 // dedup marks, indexed by NodeID
	gen   uint32   // current stamp generation
}

// count returns how many dispatchers other than the publisher
// subscribe to at least one pattern of the content.
// down, when non-nil, excludes currently crashed subscribers: a down
// dispatcher is not expected to receive anything published during its
// outage (the paper's metric only counts deliveries a fully reliable
// scenario would produce, and a reliable system does not deliver to a
// dead process).
func (rc *receiverCounter) count(subIndex *pubsub.SubscriberIndex, c matching.Content, publisher ident.NodeID, down func(ident.NodeID) bool) int {
	rc.gen++
	if rc.gen == 0 { // generation wrap: old marks could collide
		clear(rc.stamp)
		rc.gen = 1
	}
	count := 0
	for _, p := range c {
		for _, s := range subIndex.Subscribers(p) {
			if s != publisher && rc.stamp[s] != rc.gen && (down == nil || !down(s)) {
				rc.stamp[s] = rc.gen
				count++
			}
		}
	}
	return count
}

// Run executes one simulation. Every run builds its state fresh and
// drops it when it returns.
func Run(p Params) (Result, error) {
	p, err := p.normalize()
	if err != nil {
		return Result{}, err
	}
	k := sim.New(p.Seed)
	topoRNG := k.NewStream(0x746f706f) // "topo"
	topo, err := topology.NewOverlay(p.Overlay, p.N, p.MaxDegree, topoRNG)
	if err != nil {
		return Result{}, fmt.Errorf("scenario: building topology: %w", err)
	}

	// inj is assigned after the engines exist; the closures below only
	// consult it at virtual run time, long after the assignment.
	var inj *faults.Injector

	var chk *check.Checker
	var nw *network.Network
	if p.Check != nil {
		copts := p.Check
		if copts.Convergence && copts.ConvergenceBound == 0 && p.Repair == RepairSelfStabilizing {
			// The decentralized protocol needs TTL rounds to purge a dead
			// leader plus settle-and-propose rounds to re-link: budget
			// TTL·Period with slack rather than the oracle's 2s default.
			o := *copts
			o.ConvergenceBound = 3 * time.Second
			copts = &o
		}
		var adCfg *adapt.Config
		if p.Gossip.Adapt != nil {
			n := p.Gossip.Adapt.Normalized(p.Gossip.GossipInterval)
			adCfg = &n
		}
		chk = check.New(copts, check.Env{
			Seed:        p.Seed,
			Algorithm:   p.Algorithm.String(),
			N:           p.N,
			Adapt:       adCfg,
			Now:         k.Now,
			Stop:        k.Stop,
			Topo:        topo,
			NetConfig:   p.Network,
			NodeDown:    func(id ident.NodeID) bool { return nw.NodeDown(id) },
			WasDownAt:   func(id ident.NodeID, at sim.Time) bool { return inj.WasDownAt(id, at) },
			LastFaultAt: func() sim.Time { return inj.LastFaultAt() },
		})
		topo.SetMutationHook(chk.OnTopologyMutation)
	}

	traffic := metrics.NewTraffic(p.N)
	var obs network.Observer = traffic
	if p.Trace != nil {
		obs = network.MultiObserver(traffic, &traceObserver{ring: p.Trace, now: k.Now})
	}
	if chk != nil {
		obs = network.MultiObserver(obs, chk)
	}
	nw = network.New(k, topo, p.Network, obs)
	if chk != nil {
		nw.SetArrivalObserver(chk)
	}
	if p.NewLossModel != nil {
		nw.SetLossModel(p.NewLossModel(k.NewStream))
	}
	var tracker metrics.Tracker
	if p.MetricsMode == MetricsStreaming {
		// The ring is sized to span the whole run (plus slack) so no
		// publish bucket ages out mid-run; the 64Ki cap (2.5 MiB of
		// cells) only binds past ~1.8 h of simulated time at the
		// default 100 ms bucket, where the oldest buckets fold into an
		// aggregate and leave windowed queries. Reservoir seeds derive
		// from the run seed but never touch kernel streams.
		ring := int(p.Duration/p.BucketWidth) + 2
		if ring > 1<<16 {
			ring = 1 << 16
		}
		cfg := metrics.StreamingConfig{
			Now:         k.Now,
			Seed:        p.Seed,
			BucketWidth: p.BucketWidth,
			RingBuckets: ring,
		}
		tracker = metrics.NewStreamingTracker(cfg)
	} else {
		tracker = metrics.NewDeliveryTracker(k.Now)
	}

	onDeliver := tracker.OnDeliver
	if p.FaultPlan != nil {
		// Downtime-aware Λ accounting: an event published while this
		// subscriber was down was never expected of it (countReceivers
		// skipped it at publish time), so a later delivery — e.g. the
		// restarted node recovering a sequence gap that spans its outage
		// — must not enter the delivery statistics either.
		onDeliver = func(node ident.NodeID, ev *wire.Event, recovered bool) {
			if inj.WasDownAt(node, sim.Time(ev.PublishedAt)) {
				return
			}
			tracker.OnDeliver(node, ev, recovered)
		}
	}
	if p.Trace != nil {
		ring := p.Trace
		prev := onDeliver
		onDeliver = func(node ident.NodeID, ev *wire.Event, recovered bool) {
			kind := trace.Deliver
			if recovered {
				kind = trace.Recover
			}
			ring.Add(trace.Record{At: k.Now(), Kind: kind, Node: node, Peer: ident.None, Event: ev.ID})
			prev(node, ev, recovered)
		}
	}
	if chk != nil {
		// Outermost: the checker must see every delivery, including the
		// ones the downtime filter hides from the tracker.
		prev := onDeliver
		onDeliver = func(node ident.NodeID, ev *wire.Event, recovered bool) {
			chk.OnDeliver(node, ev, recovered)
			prev(node, ev, recovered)
		}
	}
	pcfg := pubsub.Config{
		RecordRoutes: p.Algorithm.NeedsRoutes(),
		// Cyclic overlays flood events over redundant links; only
		// first-arrival dedup terminates the flood. The tree keeps the
		// paper's forwarding untouched.
		DedupForward: p.Overlay != topology.KindTree,
		OnDeliver:    onDeliver,
	}
	nodes := make([]*pubsub.Node, p.N)
	for i := range nodes {
		id := ident.NodeID(i)
		nodes[i] = pubsub.NewNode(id, k, nw, topo.Neighbors(id), pcfg)
	}

	// Stable subscription state (paper Sec. IV-A): πmax distinct
	// patterns per dispatcher, installed before the run starts.
	u := matching.Universe{NumPatterns: p.NumPatterns, MaxMatch: p.MaxMatch}
	subRNG := k.NewStream(0x73756273) // "subs"
	var zipfSubs *matching.ZipfDist
	if s := p.Workload.ZipfSubscriptions; s > 0 {
		zipfSubs = matching.NewZipfDist(p.NumPatterns, s)
	}
	subs := make([][]ident.PatternID, p.N)
	var perm []int // shuffle scratch shared by the N draws
	for i := range subs {
		if zipfSubs != nil {
			subs[i] = u.ZipfSubscriptions(p.PatternsPerNode, zipfSubs, subRNG)
		} else {
			subs[i] = u.RandomSubscriptionsScratch(p.PatternsPerNode, subRNG, &perm)
		}
	}
	pubsub.InstallStableSubscriptions(topo, nodes, subs)
	if chk != nil {
		chk.SetSubscriptions(subs)
	}

	// The dense per-pattern subscriber index gives O(content)
	// expected-receiver counting at publish time and O(log n) updates
	// under subscription churn.
	subIndex := pubsub.NewSubscriberIndex(p.NumPatterns, subs)

	engines := make([]*core.Engine, 0, p.N)
	if p.Algorithm != core.NoRecovery {
		for _, n := range nodes {
			e, err := core.NewEngine(n, p.Gossip)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: building engine: %w", err)
			}
			e.Start()
			engines = append(engines, e)
		}
	}
	if chk != nil {
		for i, e := range engines {
			e := e
			chk.AddAudit(fmt.Sprintf("engine %d", i),
				func() error { return e.AuditInvariants(k.Now()) })
			id := ident.NodeID(i)
			e.SetAdaptObserver(func(s adapt.Snapshot) { chk.OnAdaptRound(id, s) })
		}
	}

	gossipers := make([]faults.Gossiper, p.N)
	for i, e := range engines {
		gossipers[i] = e
	}
	inj = faults.NewInjector(faults.Config{
		Kernel:         k,
		Topo:           topo,
		Net:            nw,
		Nodes:          nodes,
		Engines:        gossipers,
		RepairDelay:    p.RepairDelay,
		Trace:          p.Trace,
		DisableHealing: p.Repair == RepairSelfStabilizing,
	})
	if err := inj.Schedule(p.FaultPlan); err != nil {
		return Result{}, fmt.Errorf("scenario: scheduling fault plan: %w", err)
	}

	// Self-stabilizing maintenance: the protocol runs whether or not a
	// fault plan is scheduled — on an undamaged overlay it settles and
	// goes quiescent, which the convergence monitor relies on.
	var prot *repair.Protocol
	if p.Repair == RepairSelfStabilizing {
		prot, err = repair.New(repair.Config{
			Kernel:     k,
			Topo:       topo,
			IsDown:     inj.IsDown,
			OnLinkUp:   inj.LinkUp,
			OnLinkDown: inj.LinkDown,
		})
		if err != nil {
			return Result{}, fmt.Errorf("scenario: building repair protocol: %w", err)
		}
		prot.Start()
	}

	// Workload: every publishing dispatcher publishes with Poisson
	// arrivals. Publishers=0 (the default) means all of them; content
	// draws come from the leading PublishPatterns slice of the
	// universe when set, from all of Π otherwise.
	var published uint64
	if p.PublishRate > 0 {
		wu := u
		if p.PublishPatterns > 0 {
			wu.NumPatterns = p.PublishPatterns
		}
		var zipfContent *matching.ZipfDist
		if s := p.Workload.ZipfContent; s > 0 {
			zipfContent = matching.NewZipfDist(wu.NumPatterns, s)
		}
		// Only a fault plan crashes dispatchers.
		var down func(ident.NodeID) bool
		if p.FaultPlan != nil {
			down = inj.IsDown
		}
		receivers := receiverCounter{stamp: make([]uint32, p.N)}
		pubs := len(nodes)
		if p.Publishers > 0 && p.Publishers < pubs {
			pubs = p.Publishers
		}
		// Per-publisher rate: uniform PublishRate by default; with a
		// hot-spot the aggregate load pubs·PublishRate is preserved but
		// HotShare of it concentrates on the first HotPublishers nodes.
		rateOf := func(i int) float64 {
			h := p.Workload.HotPublishers
			if h <= 0 {
				return p.PublishRate
			}
			total := p.PublishRate * float64(pubs)
			if i < h {
				return p.Workload.HotShare * total / float64(h)
			}
			return (1 - p.Workload.HotShare) * total / float64(pubs-h)
		}
		for i := 0; i < pubs; i++ {
			rate := rateOf(i)
			if rate <= 0 { // HotShare=1 leaves cold publishers silent
				continue
			}
			meanGap := float64(time.Second) / rate
			node := nodes[i]
			wlRNG := k.NewStream(0x776f726b + int64(i)) // "work" + node
			var publish func()
			schedule := func() {
				gap := sim.Time(wlRNG.ExpFloat64() * meanGap)
				k.After(gap, publish)
			}
			publish = func() {
				if inj.IsDown(node.ID()) {
					// A crashed dispatcher publishes nothing; its Poisson
					// clock keeps ticking so the post-restart workload is
					// unchanged.
					schedule()
					return
				}
				var content matching.Content
				if zipfContent != nil {
					content = wu.ZipfContent(zipfContent, wlRNG)
				} else {
					content = wu.RandomContent(wlRNG)
				}
				ev := node.Publish(content, p.PayloadBytes)
				expected := receivers.count(subIndex, content, node.ID(), down)
				tracker.OnPublish(ev.ID, expected, k.Now())
				if chk != nil {
					chk.OnPublish(node.ID(), ev, expected)
				}
				if p.Trace != nil {
					p.Trace.Add(trace.Record{At: k.Now(), Kind: trace.Publish, Node: node.ID(), Peer: ident.None, Event: ev.ID})
				}
				published++
				schedule()
			}
			schedule()
		}
	}

	// The mutation generators take their place in the kernel's tie-break
	// order after the workload: subscription churn, then the paper's
	// reconfiguration.
	if rate := p.Workload.SubChurnRate; rate > 0 {
		draw := func(r *rand.Rand) ident.PatternID { return ident.PatternID(r.Intn(p.NumPatterns)) }
		if zipfSubs != nil {
			draw = zipfSubs.Draw
		}
		inj.ChurnSubscriptions(rate, subIndex, p.NumPatterns, draw)
	}
	if p.ReconfigInterval > 0 {
		inj.Reconfigure(p.ReconfigInterval)
	}

	k.Run(p.Duration)
	for _, e := range engines {
		e.Stop()
	}
	if chk != nil {
		// The audits walk the engines' buffers as the run left them.
		if err := chk.Finish(tracker); err != nil {
			return Result{}, err
		}
	}

	res := Result{
		Params:              p,
		DeliveryRate:        tracker.Rate(p.MeasureFrom, p.MeasureTo),
		RecoveredShare:      tracker.RecoveredShare(p.MeasureFrom, p.MeasureTo),
		ReceiversPerEvent:   tracker.ReceiversPerEvent(p.MeasureFrom, p.MeasureTo),
		TimeSeries:          tracker.TimeSeries(p.BucketWidth),
		GossipPerDispatcher: traffic.GossipPerDispatcher(),
		GossipEventRatio:    traffic.GossipEventRatio(),
		EventsPublished:     published,
		MeanPathLength:      topo.MeanPairwiseDistance(),
		KernelEvents:        k.Processed(),
	}
	fs := inj.Stats()
	res.Crashes = fs.Crashes
	res.Restarts = fs.Restarts
	res.LinkFlaps = fs.LinkFlaps
	res.Partitions = fs.Partitions
	res.NodeDowntime = inj.Downtime(p.Duration)
	res.RepairAbandoned = fs.RepairAbandoned
	res.Reconfigurations = fs.LinkBreaks
	res.ReconfigSkips = fs.BreakSkips
	res.SubChurns = fs.SubSwaps
	if prot != nil {
		res.Repair = prot.Stats()
	}
	res.ExpectedDeliveries, res.Deliveries, res.Recoveries = tracker.Totals()
	if rl := tracker.RoutedLatency(); rl.Count() > 0 {
		res.RoutedLatencyP50 = rl.Quantile(0.5)
		res.RoutedLatencyP99 = rl.Quantile(0.99)
	}
	if cl := tracker.RecoveryLatency(); cl.Count() > 0 {
		res.RecoveryLatencyP50 = cl.Quantile(0.5)
		res.RecoveryLatencyP99 = cl.Quantile(0.99)
	}
	for _, e := range engines {
		s := e.Stats()
		res.EngineStats.RoundsStarted += s.RoundsStarted
		res.EngineStats.RoundsSkipped += s.RoundsSkipped
		res.EngineStats.LossesDetected += s.LossesDetected
		res.EngineStats.Recovered += s.Recovered
		res.EngineStats.DuplicateRecoveries += s.DuplicateRecoveries
		res.EngineStats.RequestsSent += s.RequestsSent
		res.EngineStats.RetransmitsServed += s.RetransmitsServed
		if as, ok := e.AdaptStats(); ok {
			res.Adapt.Merge(as)
		}
	}
	return res, nil
}

// Runner runs simulations one after another; its Run is Run and it
// shares no state between runs. It is kept for benchmark/sim.go, which
// runs the legs of a workload through one. The zero value is ready.
type Runner struct{}

// Run executes one simulation; see Run.
func (Runner) Run(p Params) (Result, error) { return Run(p) }

// traceObserver adapts a trace ring to the network.Observer interface.
type traceObserver struct {
	ring *trace.Ring
	now  func() sim.Time
}

var _ network.Observer = (*traceObserver)(nil)

// OnSend implements network.Observer.
func (t *traceObserver) OnSend(from, to ident.NodeID, msg wire.Message, _ bool) {
	t.ring.Add(trace.Record{At: t.now(), Kind: trace.Send, Node: from, Peer: to, Msg: msg.Kind(), Event: eventOf(msg)})
}

// OnLoss implements network.Observer.
func (t *traceObserver) OnLoss(from, to ident.NodeID, msg wire.Message, _ bool) {
	t.ring.Add(trace.Record{At: t.now(), Kind: trace.Loss, Node: from, Peer: to, Msg: msg.Kind(), Event: eventOf(msg)})
}

func eventOf(msg wire.Message) ident.EventID {
	if ev, ok := msg.(*wire.Event); ok {
		return ev.ID
	}
	return ident.EventID{}
}
