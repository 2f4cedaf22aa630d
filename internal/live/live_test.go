package live

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
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

func TestLiveRoutingDeliversToSubscribers(t *testing.T) {
	var delivered sync.Map // nodeID → count
	c, err := NewCluster(8, 4, 42, func(i int) Config {
		id := ident.NodeID(i)
		return Config{
			OnDeliver: func(ev *wire.Event, recovered bool) {
				v, _ := delivered.LoadOrStore(id, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Nodes 2 and 5 subscribe to pattern 7.
	c.Nodes[2].Subscribe(7)
	c.Nodes[5].Subscribe(7)
	// Subscription forwarding floods every dispatcher.
	waitFor(t, 2*time.Second, func() bool {
		for _, n := range c.Nodes {
			if n.KnownPatternCount() == 0 {
				return false
			}
		}
		return true
	}, "subscription propagation")

	// Publish events matching 7 and one matching nothing.
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

func TestLiveUnsubscribeStopsDelivery(t *testing.T) {
	c, err := NewCluster(4, 4, 7, func(int) Config { return Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Nodes[3].Subscribe(5)
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[0].KnownPatternCount() == 1
	}, "subscription propagation")

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
// lossy live network (30% injected drop per tree send) recovers lost
// events through real gossip over UDP.
func TestLiveRecoveryOverRealSockets(t *testing.T) {
	const (
		nodes   = 10
		events  = 150
		pattern = ident.PatternID(7)
	)
	for _, algo := range []core.Algorithm{core.Push, core.CombinedPull} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			c, err := NewCluster(nodes, 4, 11, func(i int) Config {
				return Config{
					Algorithm:      algo,
					GossipInterval: 10 * time.Millisecond,
					DropProb:       0.3,
					PForward:       1.0,
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Every node except the publisher subscribes.
			for i := 1; i < nodes; i++ {
				c.Nodes[i].Subscribe(pattern)
			}
			waitFor(t, 2*time.Second, func() bool {
				return c.Nodes[0].KnownPatternCount() >= 1
			}, "subscription propagation")

			for e := 0; e < events; e++ {
				c.Nodes[0].Publish(matching.Content{pattern})
				time.Sleep(time.Millisecond)
			}

			want := uint64(events)
			// Generous deadline: live tests share the machine with
			// whatever else runs; recovery itself takes well under a
			// second of quiet CPU.
			waitFor(t, 30*time.Second, func() bool {
				for i := 1; i < nodes; i++ {
					// The last events may be undetectable by pull
					// (nothing published after them), so require all
					// but the tail.
					if c.Nodes[i].Stats().Delivered < want-5 {
						return false
					}
				}
				return true
			}, "recovery of dropped events")

			var recovered, droppedInj uint64
			for i := 0; i < nodes; i++ {
				s := c.Nodes[i].Stats()
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
		})
	}
}

func TestLiveNoRecoveryBaselineLoses(t *testing.T) {
	c, err := NewCluster(6, 4, 3, func(i int) Config {
		return Config{DropProb: 0.4}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Nodes[5].Subscribe(2)
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[0].KnownPatternCount() >= 1
	}, "subscription propagation")
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
	c, err := NewCluster(6, 2, 21, func(i int) Config {
		return Config{Algorithm: core.CombinedPull, GossipInterval: 10 * time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Degree bound 2 makes the overlay a line: find the two ends and a
	// middle node to kill... any non-adjacent pair works; use the tree.
	// Subscribe a direct neighbor of the publisher so its route cannot
	// cross the crashed node.
	nb := c.Topo.Neighbors(0)[0]
	c.Nodes[nb].Subscribe(3)
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[0].KnownPatternCount() >= 1
	}, "subscription propagation")

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

func TestLiveCloseIsIdempotentAndJoinsGoroutines(t *testing.T) {
	n, err := NewNode(Config{ID: 1, Algorithm: core.Push})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveSequenceTagsOnWire(t *testing.T) {
	// Two live nodes: the publisher stamps per-(source, pattern)
	// sequence numbers that survive the real codec round trip.
	var mu sync.Mutex
	var got []uint32
	c, err := NewCluster(2, 4, 9, func(i int) Config {
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
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Nodes[1].Subscribe(4)
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[0].KnownPatternCount() >= 1
	}, "subscription propagation")
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
	if _, err := NewCluster(0, 4, 1, func(int) Config { return Config{} }); err == nil {
		t.Fatal("NewCluster(0) succeeded")
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
