package faults

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testRig assembles the minimal component stack an Injector needs:
// kernel, topology, network, and pubsub nodes (no recovery engines).
type testRig struct {
	k     *sim.Kernel
	topo  *topology.Tree
	inj   *Injector
	nodes []*pubsub.Node
}

func newTestRig(t *testing.T, topo *topology.Tree, cfg Config) *testRig {
	t.Helper()
	k := sim.New(1)
	nw := network.New(k, topo, network.DefaultConfig(), metrics.NewTraffic(topo.N()))
	nodes := make([]*pubsub.Node, topo.N())
	for i := range nodes {
		id := ident.NodeID(i)
		nodes[i] = pubsub.NewNode(id, k, nw, topo.Neighbors(id), pubsub.Config{})
	}
	cfg.Kernel = k
	cfg.Topo = topo
	cfg.Net = nw
	cfg.Nodes = nodes
	return &testRig{k: k, topo: topo, inj: NewInjector(cfg), nodes: nodes}
}

// TestHealRetryCapAbandons pins the satellite fix: a heal whose
// components can never merge (every survivor degree-saturated) stops
// rescheduling after MaxHealRetries and counts RepairAbandoned, instead
// of looping forever.
func TestHealRetryCapAbandons(t *testing.T) {
	// Line 0-1-2 with maxDegree 2; triangles {0,3,4} and {2,5,6} push 0
	// and 2 to (over-)saturation, so after node 1 crashes the two
	// surviving components have no free degree slot anywhere.
	topo, err := topology.NewUnchecked(topology.KindTree, 7, 2, []topology.Link{
		{A: 0, B: 1}, {A: 1, B: 2},
		{A: 0, B: 3}, {A: 3, B: 4}, {A: 4, B: 0},
		{A: 2, B: 5}, {A: 5, B: 6}, {A: 6, B: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig := newTestRig(t, topo, Config{
		RepairDelay:    10 * time.Millisecond,
		MaxHealRetries: 3,
	})
	plan := &Plan{Actions: []Action{{Kind: NodeCrash, Node: 1}}}
	if err := rig.inj.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	rig.k.Run(time.Second)

	st := rig.inj.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if st.RepairAbandoned != 1 {
		t.Fatalf("RepairAbandoned = %d, want 1", st.RepairAbandoned)
	}
	if topo.Connected() {
		t.Fatal("unmergeable components were somehow merged")
	}
	// The kernel drained: the heal did not reschedule past the cap. A
	// forever-retrying heal at 10ms over 1s would process ~100 events.
	if ev := rig.k.Processed(); ev > 20 {
		t.Fatalf("kernel processed %d events — heal kept rescheduling", ev)
	}
}

// TestHealSucceedsUnderDefaultCap checks the cap does not fire on a
// component pair that can merge.
func TestHealSucceedsUnderDefaultCap(t *testing.T) {
	topo := topology.NewLine(5) // 0-1-2-3-4, maxDegree 2
	rig := newTestRig(t, topo, Config{RepairDelay: 10 * time.Millisecond})
	plan := &Plan{Actions: []Action{{Kind: NodeCrash, Node: 2}}}
	if err := rig.inj.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	rig.k.Run(time.Second)
	st := rig.inj.Stats()
	if st.RepairAbandoned != 0 {
		t.Fatalf("RepairAbandoned = %d, want 0", st.RepairAbandoned)
	}
	if rig.topo.Path(0, 4) == nil {
		t.Fatal("survivors 0 and 4 were not reconnected")
	}
}

// TestDisableHealingLeavesRepairToProtocol pins decentralized mode: a
// crash schedules no heal, and a restart brings the node back isolated
// for the self-stabilizing protocol to re-attach.
func TestDisableHealingLeavesRepairToProtocol(t *testing.T) {
	topo := topology.NewLine(5)
	rig := newTestRig(t, topo, Config{
		RepairDelay:    10 * time.Millisecond,
		DisableHealing: true,
	})
	plan := &Plan{Actions: []Action{{Kind: NodeCrash, Node: 2, Downtime: 100 * time.Millisecond}}}
	if err := rig.inj.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	rig.k.Run(time.Second)
	st := rig.inj.Stats()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", st.Crashes, st.Restarts)
	}
	if rig.topo.Connected() {
		t.Fatal("injector healed or re-attached despite DisableHealing")
	}
	if rig.topo.Degree(2) != 0 {
		t.Fatalf("restarted node has degree %d, want 0 (isolated)", rig.topo.Degree(2))
	}
	if rig.inj.IsDown(2) {
		t.Fatal("node 2 still down after restart")
	}
	if rig.inj.LastFaultAt() == 0 {
		t.Fatal("LastFaultAt not recorded")
	}
}

// TestLinkBreakHealsByRepairMode drives the reconfiguration generator
// on a 5-node line: in oracle mode every break is replaced RepairDelay
// later, so the line stays one component; with DisableHealing nothing
// replaces the links, the line falls apart link by link, and every
// later epoch is counted as a skip.
func TestLinkBreakHealsByRepairMode(t *testing.T) {
	oracle := newTestRig(t, topology.NewLine(5), Config{RepairDelay: 10 * time.Millisecond})
	oracle.inj.Reconfigure(100 * time.Millisecond)
	oracle.k.Run(time.Second + 50*time.Millisecond)
	if st := oracle.inj.Stats(); st.LinkBreaks != 10 || st.BreakSkips != 0 {
		t.Fatalf("oracle: breaks=%d skips=%d, want 10/0", st.LinkBreaks, st.BreakSkips)
	}
	if !oracle.topo.Connected() {
		t.Fatal("oracle: replacement links did not reconnect the line")
	}

	selfStab := newTestRig(t, topology.NewLine(5), Config{RepairDelay: 10 * time.Millisecond, DisableHealing: true})
	selfStab.inj.Reconfigure(100 * time.Millisecond)
	selfStab.k.Run(time.Second)
	if st := selfStab.inj.Stats(); st.LinkBreaks != 4 || st.BreakSkips != 6 {
		t.Fatalf("DisableHealing: breaks=%d skips=%d, want 4/6", st.LinkBreaks, st.BreakSkips)
	}
	if n := selfStab.topo.NumLinks(); n != 0 {
		t.Fatalf("DisableHealing: %d links left, want 0 (nothing replaced)", n)
	}
}

// TestSubSwapSkipsCrashedDispatcher pins the churn policy under node
// faults: a swap aimed at a crashed dispatcher is skipped and counted,
// its subscriptions stay as they were, and the swaps that do apply
// keep the subscriber index in step with the dispatchers.
func TestSubSwapSkipsCrashedDispatcher(t *testing.T) {
	const patterns = 8
	rig := newTestRig(t, topology.NewLine(3), Config{RepairDelay: 10 * time.Millisecond})
	subs := make([][]ident.PatternID, 3)
	for i, n := range rig.nodes {
		n.Subscribe(ident.PatternID(i))
		subs[i] = []ident.PatternID{ident.PatternID(i)}
	}
	index := pubsub.NewSubscriberIndex(patterns, subs)
	plan := &Plan{Actions: []Action{{Kind: NodeCrash, Node: 0}}}
	if err := rig.inj.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	uniform := func(r *rand.Rand) ident.PatternID { return ident.PatternID(r.Intn(patterns)) }
	rig.inj.ChurnSubscriptions(50, index, patterns, uniform)
	rig.k.Run(time.Second)

	st := rig.inj.Stats()
	if st.SubSwaps == 0 || st.Skipped == 0 {
		t.Fatalf("swaps=%d skipped=%d, want both > 0", st.SubSwaps, st.Skipped)
	}
	if got := rig.nodes[0].LocalPatterns(); !slices.Equal(got, []ident.PatternID{0}) {
		t.Fatalf("crashed dispatcher's subscriptions changed to %v", got)
	}
	for p := ident.PatternID(0); p < patterns; p++ {
		for _, v := range index.Subscribers(p) {
			if !rig.nodes[v].IsLocal(p) {
				t.Fatalf("index lists node %d under pattern %d it does not hold", v, p)
			}
		}
	}
	for v, n := range rig.nodes {
		for _, p := range n.LocalPatterns() {
			if !slices.Contains(index.Subscribers(p), ident.NodeID(v)) {
				t.Fatalf("node %d holds pattern %d the index does not list", v, p)
			}
		}
	}
}
