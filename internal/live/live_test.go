package live

import (
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/pubsub"
	"repro/internal/topology"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes. Live tests
// run over real sockets, so they synchronize by observation, not by
// sleeping fixed amounts.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timeout waiting for: " + msg)
}

// waitRoutes waits until subscription forwarding has installed every
// route toward the given subscribers of p: each other node lists its
// next hop on the tree path toward each subscriber among its interest
// directions for p. A node that merely knows p is not enough, since it
// may have heard of p from one subscriber's side before the route
// toward another is installed.
func waitRoutes(t *testing.T, c *Cluster, p ident.PatternID, subs ...ident.NodeID) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		for _, s := range subs {
			for v, n := range c.Nodes {
				if path := c.Topo.Path(ident.NodeID(v), s); path != nil && !n.routesToward(p, path[1]) {
					return false
				}
			}
		}
		return true
	}, "routes toward every subscriber")
}

// routesToward reports whether n forwards events matching p to hop.
func (n *Node) routesToward(p ident.PatternID, hop ident.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	var buf pubsub.DirBuf
	return slices.Contains(n.ps.InterestDirections(&buf, p), hop)
}

// newCluster starts a cluster on a default dispatcher.
func newCluster(t *testing.T, n, maxDegree int, seed int64, mkcfg func(i int) Config) *Cluster {
	t.Helper()
	c, err := NewDispatcherCluster(n, maxDegree, seed, DispatcherConfig{}, mkcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newNodeCluster starts n nodes with NewNode, each on its own
// one-socket dispatcher, and wires them like NewDispatcherCluster, so
// every datagram crosses between two dispatchers' sockets. The
// cluster has no Disp; its nodes close when the test ends.
func newNodeCluster(t *testing.T, n, maxDegree int, seed int64, mkcfg func(i int) Config) *Cluster {
	t.Helper()
	topo, err := topology.New(n, maxDegree, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{Topo: topo}
	for i := 0; i < n; i++ {
		cfg := mkcfg(i)
		cfg.ID = ident.NodeID(i)
		if cfg.Seed == 0 {
			cfg.Seed = seed
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		c.Nodes = append(c.Nodes, node)
	}
	c.link()
	return c
}

// routingDelivers subscribes nodes 2 and 5 of an 8-node cluster to
// pattern 7 and publishes from node 0: both subscribers must get the
// two matching events, and nobody else anything. start builds the
// cluster from the per-node configuration and closes it at the end of
// the test.
func routingDelivers(t *testing.T, start func(mkcfg func(i int) Config) *Cluster) {
	var delivered sync.Map // nodeID → count
	c := start(func(i int) Config {
		id := ident.NodeID(i)
		return Config{
			OnDeliver: func(ev *wire.Event, recovered bool) {
				v, _ := delivered.LoadOrStore(id, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
			},
		}
	})

	c.Nodes[2].Subscribe(7)
	c.Nodes[5].Subscribe(7)
	waitRoutes(t, c, 7, 2, 5)

	// Two events match 7, one matches nothing.
	c.Nodes[0].Publish(matching.Content{7})
	c.Nodes[0].Publish(matching.Content{7, 9})
	c.Nodes[0].Publish(matching.Content{3})

	count := func(id ident.NodeID) int64 {
		v, ok := delivered.Load(id)
		if !ok {
			return 0
		}
		return v.(*atomic.Int64).Load()
	}
	waitFor(t, 2*time.Second, func() bool {
		return count(2) == 2 && count(5) == 2
	}, "event delivery to both subscribers")

	// Nobody else got anything.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 8; i++ {
		id := ident.NodeID(i)
		if id == 2 || id == 5 {
			continue
		}
		if got := count(id); got != 0 {
			t.Fatalf("non-subscriber %v got %d deliveries", id, got)
		}
	}
}

// TestLiveRoutingDeliversToSubscribers routes over NewNode nodes: each
// hop crosses between two dispatchers.
func TestLiveRoutingDeliversToSubscribers(t *testing.T) {
	routingDelivers(t, func(mkcfg func(i int) Config) *Cluster {
		return newNodeCluster(t, 8, 4, 42, mkcfg)
	})
}

// recoversWithLoss runs a lossy network (30% injected drop per tree
// send) of the given size: node 0 publishes events matching a pattern
// every other node subscribes to, and every subscriber must recover
// every lost event through real gossip over UDP. start builds the
// cluster from the per-node configuration and closes it at the end of
// the test.
func recoversWithLoss(t *testing.T, algo core.Algorithm, nodes, events int, start func(mkcfg func(i int) Config) *Cluster) {
	const pattern = ident.PatternID(7)
	// counted[i] is how many of the first `events` events node i
	// delivered; node 0 is the only publisher, so those are the events
	// with sequence numbers 1 … events.
	counted := make([]atomic.Int64, nodes)
	c := start(func(i int) Config {
		return Config{
			Algorithm:      algo,
			GossipInterval: 10 * time.Millisecond,
			DropProb:       0.3,
			PForward:       1.0,
			OnDeliver: func(ev *wire.Event, recovered bool) {
				if ev.ID.Seq <= uint32(events) {
					counted[i].Add(1)
				}
			},
		}
	})

	subs := make([]ident.NodeID, 0, nodes-1)
	for i := 1; i < nodes; i++ {
		c.Nodes[i].Subscribe(pattern)
		subs = append(subs, ident.NodeID(i))
	}
	waitRoutes(t, c, pattern, subs...)

	for e := 0; e < events; e++ {
		c.Nodes[0].Publish(matching.Content{pattern})
		time.Sleep(time.Millisecond)
	}

	// Pull detects a loss only from a later event on the same chain, and
	// a run of lost events at the end has none, so while some subscriber
	// lacks a counted event the publisher keeps extending the chain with
	// uncounted events. Generous deadline: live tests share the machine
	// with whatever else runs; recovery itself takes well under a second
	// of quiet CPU.
	waitFor(t, 30*time.Second, func() bool {
		for i := 1; i < nodes; i++ {
			if counted[i].Load() < int64(events) {
				c.Nodes[0].Publish(matching.Content{pattern})
				return false
			}
		}
		return true
	}, "recovery of dropped events")

	var recovered, droppedInj uint64
	for _, n := range c.Nodes {
		s := n.Stats()
		recovered += s.Recovered
		droppedInj += s.DroppedInject
	}
	if droppedInj == 0 {
		t.Fatal("loss injection never fired — test proves nothing")
	}
	if recovered == 0 {
		t.Fatal("no events recovered via gossip")
	}
	t.Logf("%v: injected drops=%d, recovered=%d", algo, droppedInj, recovered)
}

func TestLiveUnsubscribeStopsDelivery(t *testing.T) {
	c := newCluster(t, 4, 4, 7, func(int) Config { return Config{} })

	c.Nodes[3].Subscribe(5)
	waitRoutes(t, c, 5, 3)

	c.Nodes[3].Unsubscribe(5)
	waitFor(t, 2*time.Second, func() bool {
		for _, n := range c.Nodes {
			if n.KnownPatternCount() != 0 {
				return false
			}
		}
		return true
	}, "unsubscription propagation")

	c.Nodes[0].Publish(matching.Content{5})
	time.Sleep(100 * time.Millisecond)
	if got := c.Nodes[3].Stats().Delivered; got != 0 {
		t.Fatalf("unsubscribed node delivered %d events", got)
	}
}

// TestLiveRecoveryOverRealSockets is the package's headline test: a
// lossy live network of NewNode nodes recovers lost events through
// real gossip over UDP.
func TestLiveRecoveryOverRealSockets(t *testing.T) {
	for _, algo := range []core.Algorithm{core.Push, core.CombinedPull} {
		t.Run(algo.String(), func(t *testing.T) {
			recoversWithLoss(t, algo, 10, 150, func(mkcfg func(i int) Config) *Cluster {
				return newNodeCluster(t, 10, 4, 11, mkcfg)
			})
		})
	}
}

func TestLiveNoRecoveryBaselineLoses(t *testing.T) {
	c := newCluster(t, 6, 4, 3, func(i int) Config {
		return Config{DropProb: 0.4}
	})
	c.Nodes[5].Subscribe(2)
	waitRoutes(t, c, 2, 5)
	for e := 0; e < 100; e++ {
		c.Nodes[0].Publish(matching.Content{2})
	}
	time.Sleep(300 * time.Millisecond)
	got := c.Nodes[5].Stats().Delivered
	if got == 100 {
		t.Fatal("40% drop injection lost nothing — injection broken")
	}
	if got == 0 {
		t.Fatal("everything lost — routing broken")
	}
}

// TestLiveReconfiguration rewires the overlay at runtime: a link moves
// from one pair to another, the flush and re-advertisement waves run
// over real sockets, and routing works on the new tree.
func TestLiveReconfiguration(t *testing.T) {
	// Line: 0-1-2-3 built explicitly for a predictable rewire.
	var nodes [4]*Node
	for i := range nodes {
		n, err := NewNode(Config{ID: ident.NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	dir := map[ident.NodeID]*net.UDPAddr{}
	for i, n := range nodes {
		dir[ident.NodeID(i)] = n.Addr()
	}
	for _, n := range nodes {
		n.SetDirectory(dir)
	}
	link := func(a, b int) {
		nodes[a].AddNeighbor(ident.NodeID(b), nodes[b].Addr())
		nodes[b].AddNeighbor(ident.NodeID(a), nodes[a].Addr())
	}
	unlink := func(a, b int) {
		nodes[a].RemoveNeighbor(ident.NodeID(b))
		nodes[b].RemoveNeighbor(ident.NodeID(a))
	}
	link(0, 1)
	link(1, 2)
	link(2, 3)

	nodes[3].Subscribe(5)
	waitFor(t, 2*time.Second, func() bool {
		return nodes[0].KnownPatternCount() == 1
	}, "initial propagation")

	// Rewire: break 1-2, reconnect via 0-3 (degree allows it).
	unlink(1, 2)
	link(0, 3)
	waitFor(t, 2*time.Second, func() bool {
		// Node 1's route for pattern 5 must now point at 0 — i.e. 1
		// still knows the pattern and events from 1 reach 3 via 0.
		return nodes[1].KnownPatternCount() == 1
	}, "re-advertisement")

	nodes[1].Publish(matching.Content{5})
	waitFor(t, 2*time.Second, func() bool {
		return nodes[3].Stats().Delivered == 1
	}, "delivery on the rewired overlay")
}

// TestLiveSurvivesNodeCrash: closing one dispatcher mid-run must not
// wedge the others — sends to the dead address vanish like any UDP
// datagram, and the rest of the overlay keeps delivering along its own
// routes.
func TestLiveSurvivesNodeCrash(t *testing.T) {
	c := newCluster(t, 6, 2, 21, func(i int) Config {
		return Config{Algorithm: core.CombinedPull, GossipInterval: 10 * time.Millisecond}
	})
	// Degree bound 2 makes the overlay a line: find the two ends and a
	// middle node to kill... any non-adjacent pair works; use the tree.
	// Subscribe a direct neighbor of the publisher so its route cannot
	// cross the crashed node.
	nb := c.Topo.Neighbors(0)[0]
	c.Nodes[nb].Subscribe(3)
	waitRoutes(t, c, 3, nb)

	// Crash a node that is not on the 0→nb path.
	var victim ident.NodeID = ident.None
	for i := 1; i < 6; i++ {
		if ident.NodeID(i) != nb {
			victim = ident.NodeID(i)
			break
		}
	}
	if err := c.Nodes[victim].Close(); err != nil {
		t.Fatal(err)
	}

	for e := 0; e < 20; e++ {
		c.Nodes[0].Publish(matching.Content{3})
	}
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[nb].Stats().Delivered == 20
	}, "delivery despite crashed node")
}

// TestLiveCloseIsIdempotentAndJoinsGoroutines double-closes a NewNode
// node, whose Close also closes its private dispatcher, and then that
// dispatcher.
func TestLiveCloseIsIdempotentAndJoinsGoroutines(t *testing.T) {
	n, err := NewNode(Config{ID: 1, Algorithm: core.Push})
	if err != nil {
		t.Fatal(err)
	}
	closeTwice(t, n.Close)
	closeTwice(t, n.disp.Close)
}

func TestLiveSequenceTagsOnWire(t *testing.T) {
	// Two live nodes: the publisher stamps per-(source, pattern)
	// sequence numbers that survive the real codec round trip.
	var mu sync.Mutex
	var got []uint32
	c := newCluster(t, 2, 4, 9, func(i int) Config {
		if i != 1 {
			return Config{Algorithm: core.CombinedPull}
		}
		return Config{
			Algorithm: core.CombinedPull,
			OnDeliver: func(ev *wire.Event, recovered bool) {
				if seq, ok := ev.SeqFor(4); ok {
					mu.Lock()
					got = append(got, seq)
					mu.Unlock()
				}
			},
		}
	})
	c.Nodes[1].Subscribe(4)
	waitRoutes(t, c, 4, 1)
	for i := 0; i < 3; i++ {
		c.Nodes[0].Publish(matching.Content{4})
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	}, "three tagged deliveries")
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range got {
		if seq != uint32(i+1) {
			t.Fatalf("sequence tags = %v, want [1 2 3]", got)
		}
	}
}

func TestLiveClusterBadConfig(t *testing.T) {
	if _, err := NewDispatcherCluster(0, 4, 1, DispatcherConfig{}, func(int) Config { return Config{} }); err == nil {
		t.Fatal("NewDispatcherCluster(0) succeeded")
	}
	if _, err := NewNode(Config{Bind: "256.0.0.1:bad"}); err == nil {
		t.Fatal("NewNode with bad bind succeeded")
	}
	d, err := NewDispatcher(DispatcherConfig{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, cfg := range []Config{
		{ID: 1, BufferSize: -1},
		{ID: 2, Algorithm: core.Push, PForward: 1.5},
	} {
		if n, err := NewNode(cfg); err == nil {
			n.Close()
			t.Fatalf("NewNode(%+v) succeeded", cfg)
		}
		if _, err := d.AddNode(cfg); err == nil {
			t.Fatalf("Dispatcher.AddNode(%+v) succeeded", cfg)
		}
	}
}

// TestNewNodeCloseReleasesSocket binds a node to an explicit port and
// closes it: the port must be free again, for a new node and for any
// other socket.
func TestNewNodeCloseReleasesSocket(t *testing.T) {
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	port := probe.LocalAddr().(*net.UDPAddr).Port
	probe.Close()
	bind := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))

	for i := 0; i < 2; i++ {
		n, err := NewNode(Config{ID: 1, Algorithm: core.CombinedPull, Bind: bind})
		if err != nil {
			t.Fatalf("binding %s, round %d: %v", bind, i, err)
		}
		if got := n.Addr().Port; got != port {
			t.Fatalf("node bound port %d, want %d", got, port)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	again, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		t.Fatalf("port %d still held after Close: %v", port, err)
	}
	again.Close()
}
