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

func TestDispatcherHostedRoutingDelivers(t *testing.T) {
	dispatcherModes(t, func(t *testing.T, dcfg DispatcherConfig) {
		var delivered sync.Map
		c, err := NewDispatcherCluster(8, 4, 42, dcfg, func(i int) Config {
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
		if c.Disp.BatchIO() == dcfg.disableBatchIO {
			t.Fatalf("BatchIO() = %v with disableBatchIO = %v", c.Disp.BatchIO(), dcfg.disableBatchIO)
		}

		c.Nodes[2].Subscribe(7)
		c.Nodes[5].Subscribe(7)
		waitFor(t, 2*time.Second, func() bool {
			for _, n := range c.Nodes {
				if n.KnownPatternCount() == 0 {
					return false
				}
			}
			return true
		}, "subscription propagation")

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
		waitFor(t, 2*time.Second, func() bool {
			return c.Nodes[0].KnownPatternCount() == 1
		}, "subscription propagation")
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
		const (
			nodes  = 8
			events = 80
		)
		c, err := NewDispatcherCluster(nodes, 4, 11, dcfg, func(i int) Config {
			return Config{
				Algorithm:      core.Push,
				GossipInterval: 10 * time.Millisecond,
				DropProb:       0.3,
				PForward:       1.0,
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 1; i < nodes; i++ {
			c.Nodes[i].Subscribe(7)
		}
		waitFor(t, 2*time.Second, func() bool {
			return c.Nodes[0].KnownPatternCount() >= 1
		}, "subscription propagation")
		for e := 0; e < events; e++ {
			c.Nodes[0].Publish(matching.Content{7})
			time.Sleep(time.Millisecond)
		}
		waitFor(t, 30*time.Second, func() bool {
			for i := 1; i < nodes; i++ {
				if c.Nodes[i].Stats().Delivered < events {
					return false
				}
			}
			return true
		}, "recovery of dropped events on hosted transport")
		var recovered, dropped uint64
		for _, n := range c.Nodes {
			recovered += n.Stats().Recovered
			dropped += n.Stats().DroppedInject
		}
		if dropped == 0 {
			t.Fatal("loss injection never fired — test proves nothing")
		}
		if recovered == 0 {
			t.Fatal("no events recovered via gossip")
		}
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
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[0].KnownPatternCount() >= 1
	}, "subscription propagation")
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

// TestDispatcherCloseIsIdempotent double-closes both the dispatcher and
// a hosted node.
func TestDispatcherCloseIsIdempotent(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.AddNode(Config{ID: 1, Algorithm: core.Push})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherStandaloneInterop mixes transports: a standalone node
// and a dispatcher-hosted node wired as neighbors must interoperate —
// the envelope is the contract, not the transport.
func TestDispatcherStandaloneInterop(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hosted, err := d.AddNode(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := NewNode(Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()

	dir := map[ident.NodeID]*net.UDPAddr{1: hosted.Addr(), 2: alone.Addr()}
	hosted.SetDirectory(dir)
	alone.SetDirectory(dir)
	hosted.AddNeighbor(2, alone.Addr())
	alone.AddNeighbor(1, hosted.Addr())

	alone.Subscribe(5)
	waitFor(t, 2*time.Second, func() bool {
		return hosted.KnownPatternCount() == 1
	}, "subscription crossed transports")
	hosted.Publish(matching.Content{5})
	waitFor(t, 2*time.Second, func() bool {
		return alone.Stats().Delivered == 1
	}, "delivery from hosted to standalone")
	alone.Publish(matching.Content{5})
	time.Sleep(50 * time.Millisecond)
	if got := hosted.Stats().Delivered; got != 0 {
		t.Fatalf("hosted non-subscriber delivered %d events", got)
	}
}
