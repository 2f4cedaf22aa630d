package live

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
)

// dispatcherModes runs a subtest once with the mmsg batch transport (if
// the platform has one) and once with the portable fallback, so both
// I/O paths stay covered by every dispatcher test.
func dispatcherModes(t *testing.T, run func(t *testing.T, dcfg DispatcherConfig)) {
	modes := []struct {
		name    string
		disable bool
	}{{"batchio", false}, {"portable", true}}
	for _, m := range modes {
		if !m.disable && !batchTransportAvailable {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			run(t, DispatcherConfig{Sockets: 2, Batch: 16, disableBatchIO: m.disable})
		})
	}
}

// TestDispatcherHostedRoutingDelivers routes over nodes that all share
// one dispatcher's shard sockets.
func TestDispatcherHostedRoutingDelivers(t *testing.T) {
	dispatcherModes(t, func(t *testing.T, dcfg DispatcherConfig) {
		routingDelivers(t, func(mkcfg func(i int) Config) *Cluster {
			c, err := NewDispatcherCluster(8, 4, 42, dcfg, mkcfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			if c.Disp.BatchIO() == dcfg.disableBatchIO {
				t.Fatalf("BatchIO() = %v with disableBatchIO = %v", c.Disp.BatchIO(), dcfg.disableBatchIO)
			}
			return c
		})
	})
}

// TestDispatcherCoalescingKeepsEveryMessage drives a burst far larger
// than one datagram between two hosted nodes: the coalescing writer
// must deliver every event exactly once, splitting batches at the
// datagram budget rather than dropping or duplicating.
func TestDispatcherCoalescingKeepsEveryMessage(t *testing.T) {
	dispatcherModes(t, func(t *testing.T, dcfg DispatcherConfig) {
		const events = 500
		c, err := NewDispatcherCluster(2, 2, 9, dcfg, func(i int) Config { return Config{} })
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Nodes[1].Subscribe(4)
		waitRoutes(t, c, 4, 1)
		for i := 0; i < events; i++ {
			c.Nodes[0].Publish(matching.Content{4})
		}
		waitFor(t, 5*time.Second, func() bool {
			return c.Nodes[1].Stats().Delivered == events
		}, "every coalesced event delivered")
		if got := c.Nodes[1].Stats().Delivered; got != events {
			t.Fatalf("Delivered = %d, want %d (duplicates or losses in coalescing)", got, events)
		}
	})
}

// TestDispatcherRecoveryWithLoss is the package's headline recovery
// test re-run on the hosted transport: lossy links, real gossip, every
// node on one dispatcher.
func TestDispatcherRecoveryWithLoss(t *testing.T) {
	dispatcherModes(t, func(t *testing.T, dcfg DispatcherConfig) {
		recoversWithLoss(t, core.Push, 8, 80, func(mkcfg func(i int) Config) *Cluster {
			c, err := NewDispatcherCluster(8, 4, 11, dcfg, mkcfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c
		})
	})
}

// TestDispatcherMisroutedCounted sends datagrams for nodes the
// dispatcher does not host: they must be counted and dropped, never
// delivered or crashed on.
func TestDispatcherMisroutedCounted(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	n, err := d.AddNode(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	shardAddr := n.Addr()
	// dest 99 is not hosted; dest 1 is. Both from "node 2".
	if _, err := src.WriteToUDP([]byte{2, 0, 0, 0, 99, 0, 0, 0, flagHeartbeat}, shardAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteToUDP([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0xee}, shardAddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return d.Stats().Misrouted == 1 && n.Stats().Malformed == 1
	}, "misrouted and malformed datagrams counted")
}

// TestDispatcherNodeCloseLeavesOthersRunning closes one hosted node:
// its traffic becomes misrouted, the other nodes keep delivering, and
// the shard sockets stay up.
func TestDispatcherNodeCloseLeavesOthersRunning(t *testing.T) {
	c, err := NewDispatcherCluster(4, 4, 21, DispatcherConfig{Sockets: 1}, func(i int) Config {
		return Config{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nb := c.Topo.Neighbors(0)[0]
	c.Nodes[nb].Subscribe(3)
	waitRoutes(t, c, 3, nb)
	var victim ident.NodeID = ident.None
	for i := 1; i < 4; i++ {
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
	}, "delivery despite closed co-hosted node")
}

func TestDispatcherDuplicateNodeID(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddNode(Config{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNode(Config{ID: 1}); err == nil {
		t.Fatal("hosting a duplicate node ID succeeded")
	}
}

// closeTwice calls closeFn twice: the second call must be a no-op.
func closeTwice(t *testing.T, closeFn func() error) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := closeFn(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDispatcherCloseIsIdempotent double-closes, on each I/O path, a
// hosted node and then its dispatcher.
func TestDispatcherCloseIsIdempotent(t *testing.T) {
	dispatcherModes(t, func(t *testing.T, dcfg DispatcherConfig) {
		d, err := NewDispatcher(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := d.AddNode(Config{ID: 1, Algorithm: core.Push})
		if err != nil {
			t.Fatal(err)
		}
		closeTwice(t, n.Close)
		closeTwice(t, d.Close)
	})
}

// TestDispatcherPairInterop wires nodes on two dispatchers, one on
// each I/O path where the platform has batch I/O, as neighbors:
// datagrams cross between the two dispatchers' sockets, and the
// envelope is the whole contract between them.
func TestDispatcherPairInterop(t *testing.T) {
	var nodes [2]*Node
	for i, portable := range []bool{false, true} {
		d, err := NewDispatcher(DispatcherConfig{Sockets: 1, disableBatchIO: portable})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if nodes[i], err = d.AddNode(Config{ID: ident.NodeID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := nodes[0], nodes[1]

	dir := map[ident.NodeID]*net.UDPAddr{1: a.Addr(), 2: b.Addr()}
	a.SetDirectory(dir)
	b.SetDirectory(dir)
	a.AddNeighbor(2, b.Addr())
	b.AddNeighbor(1, a.Addr())

	b.Subscribe(5)
	waitFor(t, 2*time.Second, func() bool {
		return a.routesToward(5, 2)
	}, "subscription crossed dispatchers")
	a.Publish(matching.Content{5})
	waitFor(t, 2*time.Second, func() bool {
		return b.Stats().Delivered == 1
	}, "delivery across dispatchers")
	b.Publish(matching.Content{5})
	time.Sleep(50 * time.Millisecond)
	if got := a.Stats().Delivered; got != 0 {
		t.Fatalf("non-subscriber delivered %d events", got)
	}
}
