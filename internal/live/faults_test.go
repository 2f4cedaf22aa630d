package live

import (
	"bytes"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/wire"
)

// FuzzLiveEnvelope feeds arbitrary datagrams through the full receive
// path, from the dispatcher's record walk to the node's decoder and
// ingress guard: a hardened dispatcher must never panic on adversarial
// input — malformed datagrams and records are counted and dropped.
func FuzzLiveEnvelope(f *testing.F) {
	n, err := NewNode(Config{ID: 1, Algorithm: core.CombinedPull})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = n.Close() })
	n.SetDirectory(map[ident.NodeID]*net.UDPAddr{2: fakeAddr(2), 3: fakeAddr(3)})
	n.Subscribe(7)

	ev := &wire.Event{
		ID:      ident.EventID{Source: 2, Seq: 1},
		Content: matching.Content{7},
		Tags:    []ident.PatternSeq{{Pattern: 7, Seq: 1}},
	}
	valid := appendRecord(nil, 2, 1, ev, false)
	heartbeat := appendRecord(nil, 2, 1, nil, false)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated message
	f.Add(valid[:3])            // truncated header
	f.Add(heartbeat)
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff}) // lying length
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Input the core would trust: a negative pattern, an event from a
	// far source, recovery traffic naming forged peers, and a raw event
	// flagged out of band.
	f.Add(appendRecord(nil, 2, 1, &wire.Subscribe{Pattern: -1}, false))
	far := *ev
	far.ID.Source = 1<<31 - 1
	far.Route = []ident.NodeID{far.ID.Source}
	f.Add(appendRecord(nil, 2, 1, &far, false))
	f.Add(appendRecord(nil, 1<<30, 1, &wire.Request{Requester: 1 << 30, IDs: []ident.EventID{ev.ID}}, true))
	f.Add(appendRecord(nil, 1<<30, 1, &wire.Retransmit{Responder: 1 << 30, Events: []*wire.Event{ev}}, true))
	f.Add(appendRecord(nil, 2, 1, ev, true))
	// Several records in one datagram: all for the node, one for an
	// unhosted node in the middle, and a lying length after a valid one.
	f.Add(appendRecord(appendRecord(append([]byte(nil), valid...), 3, 1, nil, false), 2, 1, &wire.Subscribe{Pattern: 7}, false))
	f.Add(append(appendRecord(append([]byte(nil), heartbeat...), 2, 99, ev, false), valid...))
	f.Add(append(append([]byte(nil), valid...), 2, 0, 0, 0, 1, 0, 0, 0, 0, 0x40, 0))
	// A forged sequence tag 2^31 ahead: loss detection must not loop
	// over the gap.
	gap := *ev
	gap.Tags = []ident.PatternSeq{{Pattern: 7, Seq: 1 << 31}}
	f.Add(appendRecord(nil, 2, 1, &gap, false))
	// Sequence numbers 0, never stamped: on a tag, inside a
	// retransmission, and on the event itself.
	zero := *ev
	zero.Tags = []ident.PatternSeq{{Pattern: 7, Seq: 0}}
	f.Add(appendRecord(nil, 2, 1, &zero, false))
	f.Add(appendRecord(nil, 2, 1, &wire.Retransmit{Responder: 2, Events: []*wire.Event{&zero}}, true))
	zero.ID.Seq, zero.Tags = 0, ev.Tags
	f.Add(appendRecord(nil, 2, 1, &zero, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		n.sh.receive(data) // must not panic
	})
}

// TestLiveFaultMalformedCounted feeds a node's dispatcher broken and
// stray datagrams: each is counted once, where it is caught, and none
// is fatal.
func TestLiveFaultMalformedCounted(t *testing.T) {
	n, err := NewNode(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	s := n.sh
	s.receive([]byte{1, 2, 3})                                     // short record
	s.receive([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0xee, 0xbb}) // undecodable message
	s.receive([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0})             // valid heartbeat
	s.receive([]byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0})             // another node's record
	n.handleRecord(record{from: 1, to: 9})                         // handed to the wrong node
	st, ds := n.Stats(), s.d.Stats()
	if st.Malformed != 1 || ds.Malformed != 1 {
		t.Fatalf("Malformed = %d at the node and %d at the dispatcher, want 1 and 1", st.Malformed, ds.Malformed)
	}
	if st.Misrouted != 1 || ds.Misrouted != 1 {
		t.Fatalf("Misrouted = %d at the node and %d at the dispatcher, want 1 and 1", st.Misrouted, ds.Misrouted)
	}
}

// TestLiveFaultZeroSequenceRefused: the ingress guard refuses an event
// whose sequence number or any tag's is 0 — on the tree or inside a
// retransmission — and counts it malformed; the core never sees it.
func TestLiveFaultZeroSequenceRefused(t *testing.T) {
	n, err := NewNode(Config{ID: 1, Algorithm: core.CombinedPull})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetDirectory(map[ident.NodeID]*net.UDPAddr{2: fakeAddr(2)})
	n.Subscribe(7)
	event := func(seq, tag uint32) *wire.Event {
		return &wire.Event{
			ID:      ident.EventID{Source: 2, Seq: seq},
			Content: matching.Content{7},
			Tags:    []ident.PatternSeq{{Pattern: 7, Seq: tag}},
		}
	}
	n.deliverFrom(2, event(1, 0), false)
	n.deliverFrom(2, event(0, 1), false)
	n.deliverFrom(2, &wire.Retransmit{Responder: 2, Events: []*wire.Event{event(1, 1), event(2, 0)}}, true)
	if st := n.Stats(); st.Malformed != 3 || st.Delivered != 0 {
		t.Fatalf("Malformed = %d, Delivered = %d after three zero-sequence records; want 3 and 0", st.Malformed, st.Delivered)
	}
	n.deliverFrom(2, event(1, 1), false)
	if st := n.Stats(); st.Malformed != 3 || st.Delivered != 1 {
		t.Fatalf("Malformed = %d, Delivered = %d after a valid event; want 3 and 1", st.Malformed, st.Delivered)
	}
}

// TestLiveFaultGoroutineHygiene opens and closes hardened nodes (all
// background loops enabled) repeatedly: Close must join every
// goroutine it started. A hosted node owns no goroutine: a two-socket
// dispatcher runs its two loops and two writers, exactly, whether it
// hosts one node or 200 gossiping, heartbeating ones.
func TestLiveFaultGoroutineHygiene(t *testing.T) {
	before := liveGoroutines()
	for i := 0; i < 10; i++ {
		n, err := NewNode(Config{
			ID:                ident.NodeID(i),
			Algorithm:         core.CombinedPull,
			GossipInterval:    2 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Subscribe(1)
		waitGoroutines(t, before+2, "a NewNode node runs its socket's 2 goroutines")
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, before, "no goroutine outlives 10 open/close cycles")

	c, err := NewDispatcherCluster(200, 4, 5, DispatcherConfig{Sockets: 2}, func(i int) Config {
		return Config{
			Algorithm:         core.CombinedPull,
			GossipInterval:    5 * time.Millisecond,
			HeartbeatInterval: 5 * time.Millisecond,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		n.Subscribe(ident.PatternID(i % 4))
	}
	waitFor(t, 2*time.Second, func() bool {
		return c.Nodes[0].Stats().HeartbeatsSent > 0 && c.Nodes[199].Stats().HeartbeatsSent > 0
	}, "heartbeats from the hosted nodes")
	waitGoroutines(t, before+4, "a 2-socket dispatcher hosting 200 nodes runs 4 goroutines")
	c.Close()
	waitGoroutines(t, before, "no goroutine outlives the dispatcher's Close")
}

// waitGoroutines waits until exactly want goroutines run a method of
// this package: a goroutine just started may not show its function
// yet, and one that a WaitGroup has just released may still be
// returning from it.
func waitGoroutines(t *testing.T, want int, msg string) {
	t.Helper()
	got := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got = liveGoroutines(); got == want {
			return
		}
	}
	t.Fatalf("%s: %d goroutines, want %d", msg, got, want)
}

// liveGoroutines counts the goroutines running a method of this
// package: shard loops and writers, or anything else a node or a
// dispatcher might start. The calling test runs none.
func liveGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("repro/internal/live.(*")) {
			count++
		}
	}
	return count
}

// TestLiveFaultDetectorSuspectsAndRevives points a node's failure
// detector at a silent peer: the peer must be suspected after the
// timeout, dropped from gossip targeting, and revived by its first
// datagram.
func TestLiveFaultDetectorSuspectsAndRevives(t *testing.T) {
	n, err := NewNode(Config{
		ID:                1,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// A bound socket that never answers: a crashed neighbor.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	n.AddNeighbor(2, dead.LocalAddr().(*net.UDPAddr))

	waitFor(t, 2*time.Second, func() bool {
		return len(n.SuspectedNeighbors()) == 1
	}, "silent neighbor was never suspected")
	if got := n.Stats().NeighborsSuspected; got != 1 {
		t.Fatalf("NeighborsSuspected = %d, want 1", got)
	}

	// Any traffic from the suspect revives it.
	n.sh.receive([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}) // a heartbeat record
	if len(n.SuspectedNeighbors()) != 0 {
		t.Fatal("neighbor still suspected after it spoke")
	}
	if got := n.Stats().NeighborsRevived; got != 1 {
		t.Fatalf("NeighborsRevived = %d, want 1", got)
	}
}

// TestLiveFaultLostRequestReRequested pins how a live node heals a lost
// push request: it keeps no retry table, so it waits for a later digest
// that advertises the event again. Inside the core's PendingTTL the
// repeated digest asks nothing; after it, the core requests the event
// again, and the answer is delivered as recovered.
func TestLiveFaultLostRequestReRequested(t *testing.T) {
	const gossiper, source = 5, 50
	ttl := core.DefaultConfig(core.Push).PendingTTL
	var recovered []ident.EventID
	n, rec := testNode(t, Config{
		ID:             1,
		Algorithm:      core.Push,
		GossipInterval: time.Hour, // no gossip round fires
		OnDeliver: func(ev *wire.Event, r bool) {
			if r {
				recovered = append(recovered, ev.ID)
			}
		},
	}, gossiper, source)
	n.Subscribe(7)
	rec.take()
	// requests counts the Requests for id that went to the gossiper.
	requests := func(id ident.EventID) int {
		count := 0
		for _, o := range rec.take() {
			if m, ok := o.msg.(*wire.Request); ok && o.to == gossiper && slices.Contains(m.IDs, id) {
				count++
			}
		}
		return count
	}

	// The repeat is suppressed only while it lands inside PendingTTL of
	// real time; a machine slow enough to miss that gets a fresh event.
	var id ident.EventID
	var digest *wire.GossipPush
	for seq := uint32(1); ; seq++ {
		if seq > 5 {
			t.Fatalf("two digests never arrived within PendingTTL (%v) of each other", ttl)
		}
		id = ident.EventID{Source: source, Seq: seq}
		digest = &wire.GossipPush{Gossiper: gossiper, Pattern: 7, Digest: []ident.EventID{id}}
		start := time.Now()
		n.deliverFrom(gossiper, digest, false)
		first := requests(id)
		n.deliverFrom(gossiper, digest, false)
		second := requests(id)
		if first != 1 {
			t.Fatalf("digest yielded %d requests to the gossiper, want 1", first)
		}
		if time.Since(start) > ttl {
			continue
		}
		if second != 0 {
			t.Fatalf("repeated digest inside PendingTTL yielded %d requests, want 0", second)
		}
		break
	}

	// The request or its answer was lost; once PendingTTL has passed,
	// the next digest asks again.
	time.Sleep(ttl + 10*time.Millisecond)
	n.deliverFrom(gossiper, digest, false)
	if got := requests(id); got != 1 {
		t.Fatalf("digest after PendingTTL yielded %d requests, want 1", got)
	}

	n.deliverFrom(gossiper, &wire.Retransmit{
		Responder: gossiper,
		Events:    []*wire.Event{{ID: id, Content: matching.Content{7}}},
	}, true)
	if !slices.Equal(recovered, []ident.EventID{id}) {
		t.Fatalf("recovered %v, want [%v]", recovered, id)
	}
	if got := n.Stats().Recovered; got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
}
