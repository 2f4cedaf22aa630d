package live

import (
	"net"
	"runtime"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		n.disp.route(data, nil) // must not panic
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
	d := n.disp
	d.route([]byte{1, 2, 3}, nil)                                     // short record
	d.route([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0xee, 0xbb}, nil) // undecodable message
	d.route([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, nil)             // valid heartbeat
	d.route([]byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0}, nil)             // another node's record
	n.handleRecord(record{from: 1, to: 9})                            // handed to the wrong node
	st, ds := n.Stats(), d.Stats()
	if st.Malformed != 1 || ds.Malformed != 1 {
		t.Fatalf("Malformed = %d at the node and %d at the dispatcher, want 1 and 1", st.Malformed, ds.Malformed)
	}
	if st.Misrouted != 1 || ds.Misrouted != 1 {
		t.Fatalf("Misrouted = %d at the node and %d at the dispatcher, want 1 and 1", st.Misrouted, ds.Misrouted)
	}
}

// TestLiveFaultGoroutineHygiene opens and closes hardened nodes (all
// background loops enabled) repeatedly: Close must join every
// goroutine it started.
func TestLiveFaultGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()
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
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Tolerate runtime background goroutines; retry to let stragglers
	// finish unwinding.
	for deadline := time.Now().Add(2 * time.Second); ; {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 10 open/close cycles", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	n.disp.route([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, nil) // a heartbeat record
	if len(n.SuspectedNeighbors()) != 0 {
		t.Fatal("neighbor still suspected after it spoke")
	}
	if got := n.Stats().NeighborsRevived; got != 1 {
		t.Fatalf("NeighborsRevived = %d, want 1", got)
	}
}

// TestLiveFaultRequestRetryAndAbandon advertises a digest the node can
// never fetch (the gossiper does not exist): the request must be
// retried with backoff up to the cap and then abandoned.
func TestLiveFaultRequestRetryAndAbandon(t *testing.T) {
	n, err := NewNode(Config{
		ID:             1,
		Algorithm:      core.CombinedPull,
		GossipInterval: 2 * time.Millisecond,
		RequestBackoff: 2 * time.Millisecond,
		RequestRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Subscribe(7)

	n.deliverFrom(9, &wire.GossipPush{
		Gossiper: 9,
		Pattern:  7,
		Digest:   []ident.EventID{{Source: 9, Seq: 1}},
	}, false)
	waitFor(t, 2*time.Second, func() bool {
		return n.Stats().RequestsAbandoned == 1
	}, "unanswerable request was never abandoned")
	st := n.Stats()
	if st.RequestsRetried != 2 { // attempts 2 and 3; attempt 4 would exceed the cap
		t.Fatalf("RequestsRetried = %d, want 2", st.RequestsRetried)
	}
	if left := n.pendingLen(); left != 0 {
		t.Fatalf("%d pending entries survive abandonment", left)
	}
}

// TestLiveFaultPendingShedBounded floods the pending-request table
// past MaxPending: the oldest entries must be shed first and the table
// must never exceed its bound.
func TestLiveFaultPendingShedBounded(t *testing.T) {
	n, _ := testNode(t, Config{
		ID:             1,
		Algorithm:      core.Push,
		GossipInterval: time.Hour, // keep the retry sweep out of the way
		RequestBackoff: time.Hour,
		MaxPending:     8,
	})
	n.Subscribe(7)

	for i := 1; i <= 20; i++ {
		n.deliverFrom(9, &wire.GossipPush{
			Gossiper: 9,
			Pattern:  7,
			Digest:   []ident.EventID{{Source: 9, Seq: uint32(i)}},
		}, false)
	}
	size := n.pendingLen()
	oldestAlive := n.isPending(ident.EventID{Source: 9, Seq: 1})
	newestAlive := n.isPending(ident.EventID{Source: 9, Seq: 20})
	if size != 8 {
		t.Fatalf("pending table holds %d entries, want the 8-entry bound", size)
	}
	if oldestAlive || !newestAlive {
		t.Fatalf("shed order wrong: oldest alive=%v newest alive=%v, want oldest shed first", oldestAlive, newestAlive)
	}
	if got := n.Stats().PendingShed; got != 12 {
		t.Fatalf("PendingShed = %d, want 12", got)
	}
}
