package live

import (
	"net"
	"net/netip"
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

// TestDispatcherMisroutedCounted sends records for nodes the
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
	// dest 99 is not hosted; dest 1 is. Both from "node 2": a heartbeat
	// record and a record whose message does not decode.
	if _, err := src.WriteToUDP([]byte{2, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0}, shardAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteToUDP([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0xee}, shardAddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return d.Stats().Misrouted == 1 && n.Stats().Malformed == 1
	}, "misrouted and malformed datagrams counted")
}

// TestDispatcherNodeCloseLeavesOthersRunning closes one hosted node:
// its traffic becomes misrouted, it sends no heartbeat or gossip
// afterwards, its shard-mates keep delivering, and the shard socket
// stays up.
func TestDispatcherNodeCloseLeavesOthersRunning(t *testing.T) {
	c, err := NewDispatcherCluster(4, 4, 21, DispatcherConfig{Sockets: 1}, func(i int) Config {
		return Config{
			Algorithm:         core.CombinedPull,
			GossipInterval:    2 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
		}
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
	v := c.Nodes[victim]
	v.Subscribe(3) // something to gossip about
	waitFor(t, 2*time.Second, func() bool {
		return v.Stats().HeartbeatsSent > 0
	}, "heartbeats before the close")
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	closed := v.Stats()
	for e := 0; e < 20; e++ {
		c.Nodes[0].Publish(matching.Content{3})
	}
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[nb].Stats().Delivered == 20
	}, "delivery despite closed co-hosted node")
	time.Sleep(20 * time.Millisecond) // ten heartbeat and gossip periods
	if st := v.Stats(); st.HeartbeatsSent != closed.HeartbeatsSent || st.GossipSent != closed.GossipSent {
		t.Fatalf("closed node sent %d heartbeats and %d gossip messages after Close",
			st.HeartbeatsSent-closed.HeartbeatsSent, st.GossipSent-closed.GossipSent)
	}
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

// TestDispatcherRefusesForeignSeedOrEpoch: the first node fixes the
// dispatcher's Seed and Epoch; a later node may leave either zero or
// repeat it, and is refused when it names another.
func TestDispatcherRefusesForeignSeedOrEpoch(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Sockets: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	epoch := time.Now().Add(-time.Minute)
	if _, err := d.AddNode(Config{ID: 1, Seed: 7, Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	n, err := d.AddNode(Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.Seed != 7 || !n.cfg.Epoch.Equal(epoch) {
		t.Fatalf("a node leaving Seed and Epoch zero got %d and %v, want the dispatcher's 7 and %v", n.cfg.Seed, n.cfg.Epoch, epoch)
	}
	if _, err := d.AddNode(Config{ID: 3, Seed: 7, Epoch: epoch}); err != nil {
		t.Fatalf("a node repeating the dispatcher's Seed and Epoch was refused: %v", err)
	}
	if _, err := d.AddNode(Config{ID: 4, Seed: 8}); err == nil {
		t.Fatal("a node with another Seed was hosted")
	}
	if _, err := d.AddNode(Config{ID: 5, Epoch: epoch.Add(time.Second)}); err == nil {
		t.Fatal("a node with another Epoch was hosted")
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
// record format is the whole contract between them.
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

// records parses every record of a datagram, failing the test on a
// malformed one.
func records(t *testing.T, b []byte) []record {
	t.Helper()
	var rs []record
	for len(b) > 0 {
		r, rest, err := nextRecord(b)
		if err != nil {
			t.Fatalf("datagram does not parse: %v", err)
		}
		rs = append(rs, r)
		b = rest
	}
	return rs
}

// packed runs one writer cycle's pack over entries.
func packed(entries []out) []dgram {
	ds, _ := (&shard{}).pack(entries, nil, nil, make(map[netip.AddrPort]int))
	return ds
}

// TestPackCoalescesPerSocket pins the datagram shape: records for
// distinct sender and node pairs behind one address share a datagram,
// and two addresses never share one.
func TestPackCoalescesPerSocket(t *testing.T) {
	a := netip.MustParseAddrPort("127.0.0.1:9")
	b := netip.MustParseAddrPort("127.0.0.1:10")
	sub := &wire.Subscribe{Pattern: 1}
	ds := packed([]out{
		{from: 1, to: 2, addr: a, msg: sub},
		{from: 3, to: 4, addr: b, msg: sub},
		{from: 5, to: 6, addr: a},
		{from: 1, to: 7, addr: a, msg: sub, oob: true},
		{from: 3, to: 8, addr: b, msg: sub},
	})
	if len(ds) != 2 {
		t.Fatalf("%d datagrams for two addresses, want 2", len(ds))
	}
	want := map[netip.AddrPort][]record{
		a: {{from: 1, to: 2}, {from: 5, to: 6}, {from: 1, to: 7, flags: flagOOB}},
		b: {{from: 3, to: 4}, {from: 3, to: 8}},
	}
	for _, d := range ds {
		rs := records(t, d.b)
		w := want[d.to]
		if len(rs) != len(w) {
			t.Fatalf("datagram to %v holds %d records, want %d", d.to, len(rs), len(w))
		}
		for i, r := range rs {
			if r.from != w[i].from || r.to != w[i].to || r.flags != w[i].flags {
				t.Fatalf("datagram to %v record %d is %d→%d flags %d, want %d→%d flags %d",
					d.to, i, r.from, r.to, r.flags, w[i].from, w[i].to, w[i].flags)
			}
		}
		delete(want, d.to)
	}
}

// TestPackSplitKeepsOrder overflows one address's budget with two
// interleaved sender and node pairs: the datagrams stay within the
// budget and each pair's messages arrive in ring order.
func TestPackSplitKeepsOrder(t *testing.T) {
	a := netip.MustParseAddrPort("127.0.0.1:9")
	var entries []out
	for i := 0; i < 300; i++ {
		entries = append(entries, out{from: ident.NodeID(1 + i%2), to: 5, addr: a, msg: &wire.Subscribe{Pattern: ident.PatternID(i)}})
	}
	ds := packed(entries)
	if len(ds) < 3 {
		t.Fatalf("%d datagrams for %d bytes of records, want a split", len(ds), 300*(recordHeader+5))
	}
	next := map[ident.NodeID]int{1: 0, 2: 1}
	for _, d := range ds {
		if len(d.b) > maxDatagram {
			t.Fatalf("datagram of %d bytes exceeds the %d-byte budget", len(d.b), maxDatagram)
		}
		for _, r := range records(t, d.b) {
			msg, err := wire.Decode(r.msg)
			if err != nil {
				t.Fatal(err)
			}
			if p := int(msg.(*wire.Subscribe).Pattern); p != next[r.from] {
				t.Fatalf("sender %d: pattern %d arrived where %d was due", r.from, p, next[r.from])
			}
			next[r.from] += 2
		}
	}
	if next[1] != 300 || next[2] != 301 {
		t.Fatalf("records lost: next due %v", next)
	}
}

// TestPackOversizedRecords sends a record larger than the budget
// between two small ones: it travels alone, the small one after it is
// not packed ahead of it, and a message too large to frame is dropped.
func TestPackOversizedRecords(t *testing.T) {
	a := netip.MustParseAddrPort("127.0.0.1:9")
	big := &wire.GossipPush{Gossiper: 1, Pattern: 1, Digest: make([]ident.EventID, 200)}
	huge := &wire.Retransmit{Responder: 1}
	for huge.WireSize() <= wire.MaxFrame {
		huge.Events = append(huge.Events, &wire.Event{Content: make(matching.Content, 16)})
	}
	sub := &wire.Subscribe{Pattern: 1}
	ds := packed([]out{
		{from: 1, to: 2, addr: a, msg: sub},
		{from: 1, to: 2, addr: a, msg: big},
		{from: 1, to: 2, addr: a, msg: huge},
		{from: 1, to: 2, addr: a, msg: sub},
	})
	if len(ds) != 3 {
		t.Fatalf("%d datagrams, want 3: small, oversized alone, small", len(ds))
	}
	for i, wantLen := range []int{recordHeader + sub.WireSize(), recordHeader + big.WireSize(), recordHeader + sub.WireSize()} {
		if rs := records(t, ds[i].b); len(rs) != 1 || len(ds[i].b) != wantLen {
			t.Fatalf("datagram %d: %d records in %d bytes, want 1 in %d", i, len(rs), len(ds[i].b), wantLen)
		}
	}
}

// routeFixture hosts socketless nodes 1 and 3 on shard 1 of a bare
// two-shard dispatcher and node 4 on its shard 0, each subscribed to
// pattern 7 and trusting node 2 as an event source. It returns shard 1.
func routeFixture(t *testing.T) (*shard, map[ident.NodeID]*Node) {
	d := socketless(&recorder{}, 2)
	nodes := make(map[ident.NodeID]*Node)
	for _, id := range []ident.NodeID{1, 3, 4} {
		n := hostTestNode(t, d, Config{ID: id}, 2)
		n.Subscribe(7)
		nodes[id] = n
	}
	return d.shards[1], nodes
}

func routeEvent(seq uint32) *wire.Event {
	return &wire.Event{
		ID:      ident.EventID{Source: 2, Seq: seq},
		Content: matching.Content{7},
		Tags:    []ident.PatternSeq{{Pattern: 7, Seq: seq}},
	}
}

// TestRouteSkipsUnhostedRecord routes a four-record datagram on one
// shard. The second record names a node the dispatcher does not host,
// the last a node hosted on the dispatcher's other shard: those two
// alone are dropped, each counted as misrouted.
func TestRouteSkipsUnhostedRecord(t *testing.T) {
	s, nodes := routeFixture(t)
	b := appendRecord(nil, 2, 1, routeEvent(1), false)
	b = appendRecord(b, 2, 99, routeEvent(2), false)
	b = appendRecord(b, 2, 3, routeEvent(3), false)
	b = appendRecord(b, 2, 4, routeEvent(4), false)
	s.receive(b)
	if st := s.d.Stats(); st.Misrouted != 2 || st.Malformed != 0 {
		t.Fatalf("dispatcher counted %+v, want two misrouted records", st)
	}
	for id, want := range map[ident.NodeID]uint64{1: 1, 3: 1, 4: 0} {
		if got := nodes[id].Stats().Delivered; got != want {
			t.Fatalf("node %d delivered %d events, want %d", id, got, want)
		}
	}
}

// TestRouteLyingLength ends a datagram with a record whose length runs
// past the end: the datagram is counted malformed, without a panic,
// and the records before it stay delivered.
func TestRouteLyingLength(t *testing.T) {
	s, nodes := routeFixture(t)
	b := appendRecord(nil, 2, 1, routeEvent(1), false)
	b = appendRecord(b, 2, 3, routeEvent(1), false)
	b = append(b, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0x01)
	s.receive(b)
	if st := s.d.Stats(); st.Malformed != 1 || st.Misrouted != 0 {
		t.Fatalf("dispatcher counted %+v, want one malformed datagram", st)
	}
	for _, id := range []ident.NodeID{1, 3} {
		if st := nodes[id].Stats(); st.Delivered != 1 || st.Malformed != 0 {
			t.Fatalf("node %d delivered %d and counted %d malformed, want 1 and 0", id, st.Delivered, st.Malformed)
		}
	}
}

// TestWriteBatchSkipsRefusedDatagram sends [small, 70 KB, small] on
// each I/O path: the kernel refuses the middle datagram, and the one
// after it must still arrive.
func TestWriteBatchSkipsRefusedDatagram(t *testing.T) {
	dispatcherModes(t, func(t *testing.T, dcfg DispatcherConfig) {
		listen := func() *net.UDPConn {
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}
		dst, src := listen(), listen()
		var pc packetConn = &stdConn{conn: src}
		if !dcfg.disableBatchIO {
			if pc, _ = newBatchPacketConn(src, 4); pc == nil {
				t.Fatal("no batch transport on a platform that reports one")
			}
		}
		to := toAddrPort(dst.LocalAddr().(*net.UDPAddr))
		sent, err := pc.writeBatch([]dgram{{b: []byte("first"), to: to}, {b: make([]byte, 70<<10), to: to}, {b: []byte("third"), to: to}})
		if sent != 2 || err == nil {
			t.Fatalf("writeBatch = %d, %v; want 2 and the refusal", sent, err)
		}
		if err := dst.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for _, want := range []string{"first", "third"} {
			n, _, err := dst.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("waiting for %q: %v", want, err)
			}
			if got := string(buf[:n]); got != want {
				t.Fatalf("received %q, want %q", got, want)
			}
		}
	})
}
