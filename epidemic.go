// Package epidemic reproduces "Epidemic Algorithms for Reliable
// Content-Based Publish-Subscribe: An Evaluation" (Costa, Migliavacca,
// Picco, Cugola — ICDCS 2004): a discrete-event simulation of a
// distributed content-based publish-subscribe system whose lost events
// are recovered by epidemic (gossip) algorithms.
//
// The package is a facade over the building blocks in internal/:
//
//   - internal/sim        — discrete-event simulation kernel
//   - internal/topology   — degree-bounded tree overlays + reconfiguration
//   - internal/network    — 10 Mbit/s lossy links + out-of-band channel
//   - internal/wire       — message formats and binary codec
//   - internal/matching   — the paper's content model (patterns, events)
//   - internal/pubsub     — subscription forwarding and event routing
//   - internal/core       — the epidemic recovery algorithms (the
//     paper's contribution): push, subscriber-based pull,
//     publisher-based pull, combined pull, random pull
//   - internal/metrics    — delivery rate, overhead, time series
//   - internal/scenario   — full-system assembly and sweeps
//
// # Quick start
//
//	p := epidemic.DefaultParams()      // paper Fig. 2 defaults
//	p.Algorithm = epidemic.CombinedPull
//	res, err := epidemic.Run(p)
//	if err != nil { ... }
//	fmt.Printf("delivery rate: %.3f\n", res.DeliveryRate)
//
// Every run is deterministic under Params.Seed. Parameter sweeps run
// concurrently with RunAll; each simulation stays single-threaded, so
// concurrency never perturbs results.
package epidemic

import (
	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/network"
	"repro/internal/repair"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Time is simulated time (an alias of time.Duration).
type Time = sim.Time

// Trace is a bounded in-memory ring of protocol records (publishes,
// deliveries, recoveries, transmissions, losses, reconfigurations).
// Install one via Params.Trace to inspect what a run actually did.
type Trace = trace.Ring

// TraceRecord is one traced protocol step.
type TraceRecord = trace.Record

// TraceKind classifies trace records.
type TraceKind = trace.Kind

// Trace record kinds.
const (
	TracePublish  = trace.Publish
	TraceDeliver  = trace.Deliver
	TraceRecover  = trace.Recover
	TraceSend     = trace.Send
	TraceLoss     = trace.Loss
	TraceLinkDown = trace.LinkDown
	TraceLinkUp   = trace.LinkUp
	TraceNodeDown = trace.NodeDown
	TraceNodeUp   = trace.NodeUp
)

// NewTrace returns a trace ring retaining the last capacity records.
func NewTrace(capacity int) *Trace { return trace.New(capacity) }

// NodeID identifies a dispatcher; PatternID identifies an event
// pattern (a single number in the paper's content model); EventID
// identifies an event globally.
type (
	NodeID    = ident.NodeID
	PatternID = ident.PatternID
	EventID   = ident.EventID
)

// Content is an event's content: the set of pattern numbers it
// carries. An event matches a subscription when its content contains
// the subscribed pattern.
type Content = matching.Content

// Event is a published event as it travels on the wire.
type Event = wire.Event

// Universe describes a pattern space and generates random content and
// subscriptions (paper defaults: Π=70 patterns, events match ≤3).
type Universe = matching.Universe

// DefaultUniverse returns the paper's content-model constants.
func DefaultUniverse() Universe { return matching.DefaultUniverse() }

// Algorithm selects the recovery variant (paper Sec. III and IV).
type Algorithm = core.Algorithm

// The recovery algorithms evaluated in the paper.
const (
	// NoRecovery is the baseline: plain best-effort dispatching.
	NoRecovery = core.NoRecovery
	// Push gossips positive digests of cached events.
	Push = core.Push
	// SubscriberPull gossips negative digests toward co-subscribers.
	SubscriberPull = core.SubscriberPull
	// PublisherPull source-routes negative digests toward publishers.
	PublisherPull = core.PublisherPull
	// CombinedPull mixes the two pull variants per round (PSource).
	CombinedPull = core.CombinedPull
	// RandomPull routes negative digests at random (baseline).
	RandomPull = core.RandomPull
	// Hybrid is the extension beyond the paper: it runs Push or
	// CombinedPull round by round, switched online by the closed-loop
	// controller (always adaptive; not part of Algorithms()).
	Hybrid = core.Hybrid
)

// Algorithms lists every variant in the paper's presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// ParseAlgorithm maps a name (e.g. "combined-pull") to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// GossipConfig carries the gossip parameters (T, β, Pforward, Psource,
// buffer policy, Lost-buffer bounds, optional closed-loop controller).
type GossipConfig = core.Config

// AdaptConfig bounds and tunes the closed-loop adaptive controller
// (internal/adapt): per-node loss/churn/latency estimators drive
// Pforward, Psource, fanout, and the round period, and switch the
// Hybrid algorithm between push and pull recovery. Enable it via
// Params.Adapt; the zero value selects the documented defaults.
type AdaptConfig = adapt.Config

// AdaptRunStats aggregates the controllers' knob trajectories and
// switch counters over a run (Result.Adapt).
type AdaptRunStats = adapt.RunStats

// BufferPolicy selects the event-buffer replacement policy.
type BufferPolicy = cache.Policy

// Buffer replacement policies (the paper uses FIFO).
const (
	FIFO   = cache.FIFOPolicy
	Random = cache.RandomPolicy
	LRU    = cache.LRUPolicy
)

// Params is one simulation configuration; see scenario.Params for the
// field-by-field documentation. DefaultParams returns the paper's
// defaults (Fig. 2).
type Params = scenario.Params

// Result carries everything one run measured.
type Result = scenario.Result

// MetricsMode selects the measurement engine: MetricsExact (default,
// per-event state, what every golden test pins) or MetricsStreaming
// (O(1) memory for the 10k–100k-node regime; see DESIGN.md Sec. 11).
type MetricsMode = scenario.MetricsMode

// Measurement engines selectable via Params.MetricsMode.
const (
	MetricsExact     = scenario.MetricsExact
	MetricsStreaming = scenario.MetricsStreaming
)

// Workload holds the non-uniform workload knobs (Zipf pattern
// popularity, publisher hot-spots, subscription churn). The zero value
// is the paper's uniform workload.
type Workload = scenario.Workload

// OverlayKind selects the overlay family via Params.Overlay: the
// paper's degree-bounded random tree (the zero value), Barabási–Albert
// scale-free, or Newman–Watts small-world. Non-tree overlays forward
// events with first-arrival dedup, since their redundant links would
// otherwise circulate every event forever.
type OverlayKind = topology.Kind

// The overlay families selectable via Params.Overlay.
const (
	OverlayTree       = topology.KindTree
	OverlayScaleFree  = topology.KindScaleFree
	OverlaySmallWorld = topology.KindSmallWorld
)

// ParseOverlayKind maps a name ("tree", "scale-free", "small-world")
// to an OverlayKind. The empty string means OverlayTree.
func ParseOverlayKind(s string) (OverlayKind, error) { return topology.ParseKind(s) }

// RepairMode selects how the overlay heals after injected faults via
// Params.Repair: RepairOracle (the zero value) keeps the fault
// injector's omniscient healing, RepairSelfStabilizing runs the
// decentralized maintenance protocol of internal/repair instead.
type RepairMode = scenario.RepairMode

// The repair modes selectable via Params.Repair.
const (
	RepairOracle          = scenario.RepairOracle
	RepairSelfStabilizing = scenario.RepairSelfStabilizing
)

// ParseRepairMode maps a name ("oracle", "self-stabilizing") to a
// RepairMode. The empty string means RepairOracle.
func ParseRepairMode(s string) (RepairMode, error) { return scenario.ParseRepairMode(s) }

// RepairStats carries the self-stabilizing protocol's counters,
// reported in Result.Repair.
type RepairStats = repair.Stats

// DefaultParams returns the paper's default simulation parameters:
// N=100 dispatchers (degree ≤ 4), Π=70 patterns, πmax=2 subscriptions
// per dispatcher, 50 publish/s per dispatcher, ε=0.1, β=1500, T=30 ms,
// 25 s simulated.
func DefaultParams() Params { return scenario.DefaultParams() }

// DefaultGossipConfig returns the paper's default gossip parameters for
// the given algorithm.
func DefaultGossipConfig(a Algorithm) GossipConfig { return core.DefaultConfig(a) }

// FaultPlan is a deterministic, seed-replayable schedule of fault
// actions (crashes, restarts, link flaps, partitions, loss-model
// switches) executed on the simulation clock. Install one via
// Params.FaultPlan.
type FaultPlan = faults.Plan

// FaultAction is one scheduled fault.
type FaultAction = faults.Action

// FaultKind classifies fault actions.
type FaultKind = faults.Kind

// The fault kinds a plan may schedule.
const (
	FaultNodeCrash    = faults.NodeCrash
	FaultNodeRestart  = faults.NodeRestart
	FaultLinkFlap     = faults.LinkFlap
	FaultPartition    = faults.Partition
	FaultSetLossModel = faults.SetLossModel
)

// ChurnPlan derives a self-healing churn schedule from a seed: Poisson
// crash arrivals at the given systemwide rate, exponential downtimes
// around meanDowntime, never crashing an already-down node.
func ChurnPlan(seed int64, n int, rate float64, duration, meanDowntime Time) *FaultPlan {
	return faults.ChurnPlan(seed, n, rate, duration, meanDowntime)
}

// LossModel decides per-transmission drops; install a custom one via
// Params.NewLossModel. Bernoulli (the default, the paper's ε) drops
// independently; GilbertElliott drops in bursts driven by a per-link
// two-state Markov chain.
type (
	LossModel            = network.LossModel
	GilbertElliottConfig = network.GilbertElliottConfig
)

// Run executes one simulation, deterministically under p.Seed.
func Run(p Params) (Result, error) { return scenario.Run(p) }

// RunAll executes parameter sweeps concurrently (one goroutine per
// simulation, bounded by GOMAXPROCS) and returns results in input
// order.
func RunAll(ps []Params) ([]Result, error) { return scenario.RunAll(ps) }
