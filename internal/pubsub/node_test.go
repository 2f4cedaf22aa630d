package pubsub

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// rig is a complete miniature dispatching network for tests.
type rig struct {
	k     *sim.Kernel
	topo  *topology.Tree
	net   *network.Network
	nodes []*Node

	deliveries map[ident.NodeID][]*wire.Event
	recovered  map[ident.NodeID]int
}

func newRig(t *testing.T, topo *topology.Tree, cfg Config) *rig {
	t.Helper()
	r := &rig{
		k:          sim.New(7),
		topo:       topo,
		deliveries: make(map[ident.NodeID][]*wire.Event),
		recovered:  make(map[ident.NodeID]int),
	}
	ncfg := network.DefaultConfig()
	ncfg.LossRate = 0
	ncfg.OOBLossRate = 0
	r.net = network.New(r.k, topo, ncfg, nil)
	cfg.OnDeliver = func(node ident.NodeID, ev *wire.Event, recovered bool) {
		r.deliveries[node] = append(r.deliveries[node], ev)
		if recovered {
			r.recovered[node]++
		}
	}
	for i := 0; i < topo.N(); i++ {
		id := ident.NodeID(i)
		r.nodes = append(r.nodes, NewNode(id, r.k, r.net, topo.Neighbors(id), cfg))
	}
	return r
}

func (r *rig) run() { r.k.Run(r.k.Now() + 5*time.Second) }

func TestPublishReachesExactlyMatchingSubscribers(t *testing.T) {
	// Line 0-1-2-3-4. Node 0 publishes; 2 and 4 subscribe pattern 5,
	// node 1 subscribes pattern 9.
	topo := topology.NewLine(5)
	r := newRig(t, topo, Config{})
	subs := [][]ident.PatternID{nil, {9}, {5}, nil, {5}}
	InstallStableSubscriptions(topo, r.nodes, subs)

	ev := r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()

	for node, want := range map[ident.NodeID]int{0: 0, 1: 0, 2: 1, 3: 0, 4: 1} {
		if got := len(r.deliveries[node]); got != want {
			t.Errorf("node %v got %d deliveries, want %d", node, got, want)
		}
	}
	if got := r.deliveries[2][0].ID; got != ev.ID {
		t.Fatalf("node 2 delivered %v, want %v", got, ev.ID)
	}
}

func TestPublisherSelfDelivery(t *testing.T) {
	topo := topology.NewLine(2)
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{{5}, nil})
	r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()
	if got := len(r.deliveries[0]); got != 1 {
		t.Fatalf("publisher-subscriber got %d local deliveries, want 1", got)
	}
	if got := len(r.deliveries[1]); got != 0 {
		t.Fatalf("non-subscriber got %d deliveries, want 0", got)
	}
}

func TestSequenceTagsPerSourceAndPattern(t *testing.T) {
	topo := topology.NewLine(3)
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{nil, {3}, {7}})

	e1 := r.nodes[0].Publish(matching.Content{3, 7}, 0)
	e2 := r.nodes[0].Publish(matching.Content{3}, 0)
	e3 := r.nodes[0].Publish(matching.Content{3, 7}, 0)
	r.run()

	check := func(ev *wire.Event, p ident.PatternID, want uint32) {
		t.Helper()
		seq, ok := ev.SeqFor(p)
		if !ok {
			t.Fatalf("event %v missing tag for %v", ev.ID, p)
		}
		if seq != want {
			t.Fatalf("event %v tag %v = %d, want %d", ev.ID, p, seq, want)
		}
	}
	check(e1, 3, 1)
	check(e1, 7, 1)
	check(e2, 3, 2)
	check(e3, 3, 3)
	check(e3, 7, 2)
	if _, ok := e2.SeqFor(7); ok {
		t.Fatal("event without pattern 7 in content has a tag for it")
	}
	// Patterns nobody subscribes to are not stamped.
	e4 := r.nodes[0].Publish(matching.Content{50}, 0)
	if len(e4.Tags) != 0 {
		t.Fatalf("unsubscribed pattern stamped: %v", e4.Tags)
	}
}

func TestRouteRecording(t *testing.T) {
	topo := topology.NewLine(4)
	r := newRig(t, topo, Config{RecordRoutes: true})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{nil, nil, nil, {1}})
	r.nodes[0].Publish(matching.Content{1}, 0)
	r.run()
	evs := r.deliveries[3]
	if len(evs) != 1 {
		t.Fatalf("node 3 got %d deliveries, want 1", len(evs))
	}
	want := []ident.NodeID{0, 1, 2}
	if !reflect.DeepEqual(evs[0].Route, want) {
		t.Fatalf("route = %v, want %v", evs[0].Route, want)
	}
}

func TestNoRouteRecordingByDefault(t *testing.T) {
	topo := topology.NewLine(3)
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{nil, nil, {1}})
	r.nodes[0].Publish(matching.Content{1}, 0)
	r.run()
	if got := r.deliveries[2][0].Route; len(got) != 0 {
		t.Fatalf("route = %v, want empty", got)
	}
}

func TestDeliverRecovered(t *testing.T) {
	topo := topology.NewLine(2)
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{nil, {5}})
	ev := &wire.Event{
		ID:      ident.EventID{Source: 0, Seq: 1},
		Content: matching.Content{5},
	}
	if !r.nodes[1].DeliverRecovered(ev) {
		t.Fatal("first recovery delivery rejected")
	}
	if r.nodes[1].DeliverRecovered(ev) {
		t.Fatal("duplicate recovery delivery accepted")
	}
	if r.recovered[1] != 1 {
		t.Fatalf("recovered count = %d, want 1", r.recovered[1])
	}
	// Non-matching events are rejected.
	other := &wire.Event{ID: ident.EventID{Source: 0, Seq: 2}, Content: matching.Content{9}}
	if r.nodes[1].DeliverRecovered(other) {
		t.Fatal("non-matching recovery delivery accepted")
	}
}

func TestOriginalAfterRecoveredIsDuplicate(t *testing.T) {
	topo := topology.NewLine(2)
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{nil, {5}})
	ev := r.nodes[0].Publish(matching.Content{5}, 0)
	// Recovery wins the race; the routed original must not double count.
	r.nodes[1].DeliverRecovered(ev)
	r.run()
	if got := len(r.deliveries[1]); got != 1 {
		t.Fatalf("node 1 got %d deliveries, want 1", got)
	}
}

// tables captures the full routing state of a rig for comparison.
func tables(nodes []*Node) []map[ident.PatternID][]ident.NodeID {
	out := make([]map[ident.PatternID][]ident.NodeID, len(nodes))
	for i, n := range nodes {
		m := make(map[ident.PatternID][]ident.NodeID)
		for _, p := range n.KnownPatterns() {
			dirs := append([]ident.NodeID(nil), n.dirs(p)...)
			sort.Slice(dirs, func(a, b int) bool { return dirs[a] < dirs[b] })
			if len(dirs) > 0 {
				m[p] = dirs
			}
		}
		out[i] = m
	}
	return out
}

// TestSubscriptionForwardingConvergesToStableState is the key routing
// property test: propagating subscriptions with messages converges to
// exactly the tables that InstallStableSubscriptions computes directly.
func TestSubscriptionForwardingConvergesToStableState(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		topo, err := topology.New(n, 4, rng)
		if err != nil {
			return false
		}
		u := matching.Universe{NumPatterns: 10, MaxMatch: 3}
		subs := make([][]ident.PatternID, n)
		for i := range subs {
			if rng.Intn(2) == 0 {
				subs[i] = u.RandomSubscriptions(1+rng.Intn(3), rng)
			}
		}
		// Rig A: instantaneous setup.
		ra := newRig(t, topo, Config{})
		InstallStableSubscriptions(topo, ra.nodes, subs)
		// Rig B: message-driven subscription forwarding.
		rb := newRig(t, topo, Config{})
		for i, ps := range subs {
			for _, p := range ps {
				rb.nodes[i].Subscribe(p)
			}
		}
		rb.run()
		return reflect.DeepEqual(tables(ra.nodes), tables(rb.nodes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRoutingExactnessProperty: on reliable links, every published
// event reaches exactly its matching subscribers, exactly once each —
// regardless of topology shape and subscription placement.
func TestRoutingExactnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		topo, err := topology.New(n, 4, rng)
		if err != nil {
			return false
		}
		u := matching.Universe{NumPatterns: 12, MaxMatch: 3}
		subs := make([][]ident.PatternID, n)
		for i := range subs {
			if rng.Intn(3) > 0 {
				subs[i] = u.RandomSubscriptions(1+rng.Intn(3), rng)
			}
		}
		r := newRig(t, topo, Config{})
		InstallStableSubscriptions(topo, r.nodes, subs)

		type pub struct {
			ev      *wire.Event
			from    int
			content matching.Content
		}
		var pubs []pub
		for i := 0; i < 10; i++ {
			from := rng.Intn(n)
			content := u.RandomContent(rng)
			ev := r.nodes[from].Publish(content, 0)
			pubs = append(pubs, pub{ev: ev, from: from, content: content})
		}
		r.run()

		for _, pb := range pubs {
			for i := 0; i < n; i++ {
				matches := matching.NewInterest(subs[i]).Matches(pb.content)
				var got int
				for _, ev := range r.deliveries[ident.NodeID(i)] {
					if ev.ID == pb.ev.ID {
						got++
					}
				}
				want := 0
				if matches {
					want = 1
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnsubscribeFlushesRoutes(t *testing.T) {
	topo := topology.NewLine(4)
	r := newRig(t, topo, Config{})
	r.nodes[3].Subscribe(5)
	r.run()
	if dirs := r.nodes[0].dirs(5); len(dirs) != 1 {
		t.Fatalf("node 0 has %d directions for 5, want 1", len(dirs))
	}
	r.nodes[3].Unsubscribe(5)
	r.run()
	for i, n := range r.nodes {
		if len(n.dirs(5)) != 0 {
			t.Fatalf("node %d still routes pattern 5 after unsubscribe", i)
		}
	}
	// Events published now reach nobody.
	r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()
	if len(r.deliveries[3]) != 0 {
		t.Fatal("event delivered after unsubscribe")
	}
}

func TestDuplicateSubscribeSuppressed(t *testing.T) {
	topo := topology.NewLine(3)
	r := newRig(t, topo, Config{})
	r.nodes[0].Subscribe(5)
	r.nodes[0].Subscribe(5) // duplicate: no extra traffic
	r.run()
	sent := r.net.Sent()
	// One Subscribe 0→1 and one 1→2.
	if sent != 2 {
		t.Fatalf("network carried %d messages, want 2", sent)
	}
}

// TestReconfigurationRepairConvergesToFreshState: break a link, repair
// with a replacement, let the flush and re-advertisement waves settle,
// and compare the routing state against a freshly installed one on the
// new topology.
func TestReconfigurationRepairConvergesToFreshState(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		topo, err := topology.New(n, 4, rng)
		if err != nil {
			return false
		}
		u := matching.Universe{NumPatterns: 8, MaxMatch: 3}
		subs := make([][]ident.PatternID, n)
		for i := range subs {
			if rng.Intn(2) == 0 {
				subs[i] = u.RandomSubscriptions(1+rng.Intn(2), rng)
			}
		}
		r := newRig(t, topo, Config{})
		InstallStableSubscriptions(topo, r.nodes, subs)

		for step := 0; step < int(steps%4)+1; step++ {
			broken := topo.RandomLink(rng)
			if err := topo.RemoveLink(broken.A, broken.B); err != nil {
				return false
			}
			r.nodes[broken.A].OnLinkDown(broken.B)
			r.nodes[broken.B].OnLinkDown(broken.A)
			r.run() // let the flush wave settle
			repl, err := topo.ReplacementLink(broken, rng)
			if err != nil {
				return false
			}
			if err := topo.AddLink(repl.A, repl.B); err != nil {
				return false
			}
			r.nodes[repl.A].OnLinkUp(repl.B)
			r.nodes[repl.B].OnLinkUp(repl.A)
			r.run() // let the re-advertisement wave settle
		}

		// Fresh reference state on the final topology.
		ref := newRig(t, topo, Config{})
		InstallStableSubscriptions(topo, ref.nodes, subs)
		return reflect.DeepEqual(tables(ref.nodes), tables(r.nodes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingAfterRepairDeliversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo, err := topology.New(20, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([][]ident.PatternID, 20)
	subs[7] = []ident.PatternID{1}
	subs[13] = []ident.PatternID{1}
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, subs)

	broken := topo.RandomLink(rng)
	if err := topo.RemoveLink(broken.A, broken.B); err != nil {
		t.Fatal(err)
	}
	r.nodes[broken.A].OnLinkDown(broken.B)
	r.nodes[broken.B].OnLinkDown(broken.A)
	repl, err := topo.ReplacementLink(broken, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink(repl.A, repl.B); err != nil {
		t.Fatal(err)
	}
	r.nodes[repl.A].OnLinkUp(repl.B)
	r.nodes[repl.B].OnLinkUp(repl.A)
	r.run()

	for i := 0; i < 20; i++ {
		r.nodes[i].Publish(matching.Content{1}, 0)
	}
	r.run()
	// Subscribers 7 and 13 must each see all 20 events (including their
	// own publications, which match locally).
	for _, s := range []ident.NodeID{7, 13} {
		if got := len(r.deliveries[s]); got != 20 {
			t.Fatalf("subscriber %v got %d events after repair, want 20", s, got)
		}
	}
}

func TestKnownPatternsUnion(t *testing.T) {
	topo := topology.NewLine(3)
	r := newRig(t, topo, Config{})
	r.nodes[0].Subscribe(9)
	r.nodes[2].Subscribe(3)
	r.run()
	got := r.nodes[1].KnownPatterns()
	want := []ident.PatternID{3, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("node 1 KnownPatterns = %v, want %v", got, want)
	}
	// Node 0 knows its own 9 plus 3 from node 2.
	got = r.nodes[0].KnownPatterns()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("node 0 KnownPatterns = %v, want %v", got, want)
	}
}

func TestLocalPatternsSorted(t *testing.T) {
	topo := topology.NewLine(2)
	r := newRig(t, topo, Config{})
	for _, p := range []ident.PatternID{9, 3, 7, 1} {
		r.nodes[0].Subscribe(p)
	}
	got := r.nodes[0].LocalPatterns()
	want := []ident.PatternID{1, 3, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LocalPatterns = %v, want %v", got, want)
	}
	r.nodes[0].Unsubscribe(7)
	want = []ident.PatternID{1, 3, 9}
	if got := r.nodes[0].LocalPatterns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LocalPatterns after unsubscribe = %v, want %v", got, want)
	}
}

func BenchmarkPublishRouting(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	topo, err := topology.New(100, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.New(7)
	ncfg := network.DefaultConfig()
	ncfg.LossRate = 0
	net := network.New(k, topo, ncfg, nil)
	u := matching.DefaultUniverse()
	nodes := make([]*Node, 100)
	subs := make([][]ident.PatternID, 100)
	for i := range nodes {
		nodes[i] = NewNode(ident.NodeID(i), k, net, topo.Neighbors(ident.NodeID(i)), Config{})
		subs[i] = u.RandomSubscriptions(2, rng)
	}
	InstallStableSubscriptions(topo, nodes, subs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%100].Publish(u.RandomContent(rng), 0)
		if k.Pending() > 4096 {
			k.RunAll()
		}
	}
	k.RunAll()
}

// ringTopo builds the cycle 0-1-…-(n-1)-0 under a cyclic overlay kind.
func ringTopo(t *testing.T, n int) *topology.Tree {
	t.Helper()
	links := make([]topology.Link, n)
	for i := 0; i < n; i++ {
		links[i] = topology.Link{A: ident.NodeID(i), B: ident.NodeID((i + 1) % n)}
	}
	topo, err := topology.NewUnchecked(topology.KindSmallWorld, n, 3, links)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDedupForwardTerminatesFloodOnRing(t *testing.T) {
	// On a cycle the subscription advertisements reach every node from
	// both directions, so a publish floods both ways around the ring.
	// Without first-arrival dedup the copies would orbit forever; with
	// DedupForward the flood terminates and every subscriber delivers
	// exactly once.
	topo := ringTopo(t, 6)
	r := newRig(t, topo, Config{DedupForward: true})
	for _, sub := range []int{2, 4} {
		r.nodes[sub].Subscribe(5)
	}
	r.run() // let the advertisements settle

	ev := r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()

	for node, want := range map[ident.NodeID]int{0: 0, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0} {
		if got := len(r.deliveries[node]); got != want {
			t.Errorf("node %v got %d deliveries, want %d", node, got, want)
		}
	}
	if len(r.deliveries[2]) > 0 && r.deliveries[2][0].ID != ev.ID {
		t.Fatalf("node 2 delivered %v, want %v", r.deliveries[2][0].ID, ev.ID)
	}
	// Every dispatcher recorded the event exactly once: the flood died
	// out instead of orbiting.
	for _, nd := range r.nodes {
		if !nd.HasReceived(ev.ID) {
			t.Errorf("node %v never saw the event", nd.ID())
		}
	}
}

func TestDedupForwardOffKeepsTreeBehavior(t *testing.T) {
	// The flag must not change tree-path behavior: pure forwarders do
	// not record events they relay.
	topo := topology.NewLine(3)
	r := newRig(t, topo, Config{})
	subs := [][]ident.PatternID{nil, nil, {5}}
	InstallStableSubscriptions(topo, r.nodes, subs)
	ev := r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()
	if len(r.deliveries[2]) != 1 {
		t.Fatalf("node 2 got %d deliveries, want 1", len(r.deliveries[2]))
	}
	if r.nodes[1].HasReceived(ev.ID) {
		t.Error("relay node recorded the event with DedupForward off")
	}
}
