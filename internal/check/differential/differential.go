// Package differential cross-checks the discrete-event simulator
// against the live UDP implementation: the same overlay, the same
// subscriptions, and the same per-node publish order are driven
// through both, and every subscriber must end up with the same set of
// delivered event IDs on both sides. Both sides run the same protocol
// core (pubsub.Node + core.Engine); what differs is the driver — a
// virtual network and clock against real sockets, real time, and the
// live node's loss injection and ledger.
//
// Event identifiers are {source, sequence} with the sequence assigned
// by the publishing node, so replaying the publish plan in the same
// per-node order yields bit-identical IDs in both worlds — the
// delivered sets are directly comparable with no translation layer.
//
// The two sides do not share a loss process (the simulator draws from
// its kernel streams, the live nodes from their own PRNGs), so the
// comparison cannot be trajectory-exact. It is instead a fixed-point
// comparison: both sides run their recovery machinery to convergence,
// where every subscriber holds every matching event regardless of
// which transmissions were dropped. To force convergence past the
// in-flight tail — gap detection is driven by per-(source, pattern)
// sequence tags, so the last events of a chain have no successor to
// betray their loss — the harness publishes flush waves: extra events
// on every (publisher, pattern) chain used by the plan. Flush events
// exist only to extend the chains; they are excluded from the
// comparison, which covers exactly the core plan events.
package differential

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/live"
	"repro/internal/matching"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Case selects one differential comparison.
type Case struct {
	Seed      int64
	N         int
	Algorithm core.Algorithm
	// Publishes is the number of core (compared) events. Zero means 40.
	Publishes int
}

const (
	maxDegree      = 4
	patternCount   = 3
	gossipInterval = 8 * time.Millisecond
	dropProb       = 0.12
	// pacing between publishes: enough for the live tree to not melt,
	// short enough to keep wall-clock time low.
	publishGap = 2 * time.Millisecond
	// flushWaves bounds the convergence pushes; the live side stops
	// early once its delivered sets match the simulator's.
	flushWaves = 12
	waveBudget = 700 * time.Millisecond
)

// plan is the shared script both sides replay: who subscribes to
// what, and who publishes what in which order.
type plan struct {
	subs [][]ident.PatternID
	pubs []pubAction // core publishes, in global order
}

type pubAction struct {
	node int
	pat  ident.PatternID
}

// newPlan derives a deterministic script from the case seed. Every
// pattern gets at least two subscribers (subscriber-based pull needs a
// co-subscriber to gossip with), and publishers are never subscribed
// to the patterns they publish, so self-deliveries — which the two
// implementations account differently — never occur.
func newPlan(c Case) *plan {
	rng := rand.New(rand.NewSource(c.Seed * 7919))
	pl := &plan{subs: make([][]ident.PatternID, c.N)}
	subscribed := make([]map[ident.PatternID]bool, c.N)
	for i := range subscribed {
		subscribed[i] = make(map[ident.PatternID]bool)
	}
	for p := 1; p <= patternCount; p++ {
		pat := ident.PatternID(p)
		want := 2 + rng.Intn(2)
		for have := 0; have < want; {
			n := rng.Intn(c.N)
			if subscribed[n][pat] {
				continue
			}
			subscribed[n][pat] = true
			pl.subs[n] = append(pl.subs[n], pat)
			have++
		}
	}
	count := c.Publishes
	if count == 0 {
		count = 40
	}
	for len(pl.pubs) < count {
		n := rng.Intn(c.N)
		pat := ident.PatternID(1 + rng.Intn(patternCount))
		if subscribed[n][pat] {
			continue
		}
		pl.pubs = append(pl.pubs, pubAction{node: n, pat: pat})
	}
	return pl
}

// chains returns the distinct (publisher, pattern) pairs the plan
// uses, in first-use order — the chains flush waves must extend.
func (pl *plan) chains() []pubAction {
	seen := make(map[pubAction]bool)
	var out []pubAction
	for _, a := range pl.pubs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// deliveredSets maps node index → set of core event IDs delivered
// there. Non-subscribers appear with empty sets, so overdelivery on
// either side surfaces as a set mismatch.
type deliveredSets []map[ident.EventID]bool

func newDeliveredSets(n int) deliveredSets {
	s := make(deliveredSets, n)
	for i := range s {
		s[i] = make(map[ident.EventID]bool)
	}
	return s
}

func (s deliveredSets) equal(o deliveredSets) bool {
	for i := range s {
		if len(s[i]) != len(o[i]) {
			return false
		}
		for id := range s[i] {
			if !o[i][id] {
				return false
			}
		}
	}
	return true
}

// diff describes the first divergence for the failure message.
func (s deliveredSets) diff(o deliveredSets, sName, oName string) string {
	for i := range s {
		var only []string
		for id := range s[i] {
			if !o[i][id] {
				only = append(only, id.String())
			}
		}
		for id := range o[i] {
			if !s[i][id] {
				only = append(only, "-"+id.String())
			}
		}
		if len(only) > 0 {
			sort.Strings(only)
			return fmt.Sprintf("node %d: %s=%d events, %s=%d events; divergent (− = only in %s): %v",
				i, sName, len(s[i]), oName, len(o[i]), oName, only)
		}
	}
	return "sets identical"
}

// Run drives one case through both implementations, the live side on
// a default Dispatcher, and returns an error describing the first
// divergence, if any.
func Run(c Case) error { return run(c, live.DispatcherConfig{}) }

// run is Run with the live side hosted on a Dispatcher configured by
// dcfg.
func run(c Case, dcfg live.DispatcherConfig) error {
	pl := newPlan(c)
	simSets, err := runSim(c, pl)
	if err != nil {
		return fmt.Errorf("differential: sim side: %w", err)
	}
	liveSets, err := runLive(c, pl, simSets, dcfg)
	if err != nil {
		return fmt.Errorf("differential: live side: %w", err)
	}
	if !simSets.equal(liveSets) {
		return fmt.Errorf("differential: seed=%d algo=%s: delivered sets diverged: %s",
			c.Seed, c.Algorithm, simSets.diff(liveSets, "sim", "live"))
	}
	return nil
}

// runSim replays the plan in the simulator: core publishes paced
// publishGap apart, then all flushWaves waves on a fixed virtual
// schedule, then a settle period long enough for recovery to reach
// its fixed point.
func runSim(c Case, pl *plan) (deliveredSets, error) {
	k := sim.New(c.Seed)
	topo, err := topology.New(c.N, maxDegree, rand.New(rand.NewSource(c.Seed)))
	if err != nil {
		return nil, err
	}
	ncfg := network.DefaultConfig()
	ncfg.LossRate = dropProb
	ncfg.OOBLossRate = 0 // the live side never drops OOB traffic
	nw := network.New(k, topo, ncfg, nil)

	core_, sets := make(map[ident.EventID]bool), newDeliveredSets(c.N)
	pcfg := pubsub.Config{
		RecordRoutes: c.Algorithm.NeedsRoutes(),
		OnDeliver: func(node ident.NodeID, ev *wire.Event, recovered bool) {
			if core_[ev.ID] {
				sets[node][ev.ID] = true
			}
		},
	}
	nodes := make([]*pubsub.Node, c.N)
	for i := range nodes {
		id := ident.NodeID(i)
		nodes[i] = pubsub.NewNode(id, k, nw, topo.Neighbors(id), pcfg)
	}
	pubsub.InstallStableSubscriptions(topo, nodes, pl.subs)

	gcfg := core.DefaultConfig(c.Algorithm)
	gcfg.GossipInterval = gossipInterval
	engines := make([]*core.Engine, 0, c.N)
	for _, n := range nodes {
		e, err := core.NewEngine(n, gcfg)
		if err != nil {
			return nil, err
		}
		e.Start()
		engines = append(engines, e)
	}

	at := 10 * time.Millisecond
	for _, a := range pl.pubs {
		a := a
		k.At(at, func() {
			ev := nodes[a.node].Publish(matching.Content{a.pat}, 0)
			core_[ev.ID] = true
		})
		at += publishGap
	}
	chains := pl.chains()
	for w := 0; w < flushWaves; w++ {
		at += 150 * time.Millisecond
		for _, a := range chains {
			a := a
			k.At(at, func() {
				nodes[a.node].Publish(matching.Content{a.pat}, 0)
			})
			at += publishGap
		}
	}
	k.Run(at + 3*time.Second)
	for _, e := range engines {
		e.Stop()
	}
	return sets, nil
}

// runLive replays the plan over real UDP sockets, every node hosted on
// one Dispatcher configured by dcfg (batched I/O, coalesced
// envelopes), and polls after each flush wave until the delivered sets
// match the simulator's reference (or the wave budget runs out — the
// comparison in run then reports the divergence).
func runLive(c Case, pl *plan, want deliveredSets, dcfg live.DispatcherConfig) (deliveredSets, error) {
	var mu sync.Mutex
	core_, all := make(map[ident.EventID]bool), newDeliveredSets(c.N)

	mkcfg := func(i int) live.Config {
		id := ident.NodeID(i)
		return live.Config{
			Algorithm:      c.Algorithm,
			GossipInterval: gossipInterval,
			DropProb:       dropProb,
			// Every delivery is recorded and core_ filters at comparison
			// time: Publish returns the ID core_ is marked with only after
			// routing the event, and on loopback a subscriber's delivery
			// can run first. Filtering here would discard that delivery
			// for good (the node has the event, so recovery never
			// redelivers it) and report a core event as missing.
			OnDeliver: func(ev *wire.Event, recovered bool) {
				mu.Lock()
				all[id][ev.ID] = true
				mu.Unlock()
			},
		}
	}
	// coreSets returns the recorded deliveries of core events; the
	// caller holds mu.
	coreSets := func() deliveredSets {
		out := newDeliveredSets(c.N)
		for i := range all {
			for id := range all[i] {
				if core_[id] {
					out[i][id] = true
				}
			}
		}
		return out
	}
	cluster, err := live.NewDispatcherCluster(c.N, maxDegree, c.Seed, dcfg, mkcfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	for i, ps := range pl.subs {
		for _, p := range ps {
			cluster.Nodes[i].Subscribe(p)
		}
	}
	if err := waitFor(5*time.Second, func() bool {
		for _, n := range cluster.Nodes {
			if n.KnownPatternCount() < patternCount {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("subscription propagation: %w", err)
	}

	for _, a := range pl.pubs {
		id := cluster.Nodes[a.node].Publish(matching.Content{a.pat})
		mu.Lock()
		core_[id] = true
		mu.Unlock()
		time.Sleep(publishGap)
	}

	converged := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return coreSets().equal(want)
	}
	chains := pl.chains()
	for w := 0; w < flushWaves && !converged(); w++ {
		for _, a := range chains {
			cluster.Nodes[a.node].Publish(matching.Content{a.pat})
			time.Sleep(publishGap)
		}
		_ = waitFor(waveBudget, converged)
	}

	mu.Lock()
	defer mu.Unlock()
	return coreSets(), nil
}

// waitFor polls cond every few milliseconds until it holds or the
// deadline passes.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
