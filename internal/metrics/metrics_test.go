package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

func eid(src, seq int) ident.EventID {
	return ident.EventID{Source: ident.NodeID(src), Seq: uint32(seq)}
}

func evt(src, seq int) *wire.Event {
	return &wire.Event{ID: eid(src, seq)}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDeliveryRate(t *testing.T) {
	d := NewDeliveryTracker(nil)
	d.OnPublish(eid(0, 1), 4, time.Second)
	d.OnDeliver(1, evt(0, 1), false)
	d.OnDeliver(2, evt(0, 1), false)
	d.OnDeliver(3, evt(0, 1), true)
	if got := d.Rate(0, 2*time.Second); !approx(got, 0.75) {
		t.Fatalf("Rate = %v, want 0.75", got)
	}
	exp, del, rec := d.Totals()
	if exp != 4 || del != 3 || rec != 1 {
		t.Fatalf("Totals = %d/%d/%d, want 4/3/1", exp, del, rec)
	}
	if got := d.RecoveredShare(0, 2*time.Second); !approx(got, 1.0/3) {
		t.Fatalf("RecoveredShare = %v, want 1/3", got)
	}
}

func TestDeliveryWindowFilters(t *testing.T) {
	d := NewDeliveryTracker(nil)
	d.OnPublish(eid(0, 1), 2, time.Second)
	d.OnPublish(eid(0, 2), 2, 5*time.Second)
	d.OnDeliver(1, evt(0, 1), false)
	d.OnDeliver(1, evt(0, 2), false)
	d.OnDeliver(2, evt(0, 2), false)
	if got := d.Rate(0, 2*time.Second); !approx(got, 0.5) {
		t.Fatalf("Rate in [0,2s) = %v, want 0.5", got)
	}
	if got := d.Rate(4*time.Second, 6*time.Second); !approx(got, 1.0) {
		t.Fatalf("Rate in [4s,6s) = %v, want 1.0", got)
	}
	if got := d.Rate(10*time.Second, 20*time.Second); !approx(got, 1.0) {
		t.Fatalf("Rate of empty window = %v, want 1 (neutral)", got)
	}
}

func TestSelfDeliveryIgnored(t *testing.T) {
	d := NewDeliveryTracker(nil)
	d.OnPublish(eid(7, 1), 1, 0)
	d.OnDeliver(7, evt(7, 1), false) // publisher's own local delivery
	if got := d.Rate(0, time.Second); !approx(got, 0) {
		t.Fatalf("Rate = %v, want 0 (self-delivery ignored)", got)
	}
}

func TestUnknownEventIgnored(t *testing.T) {
	d := NewDeliveryTracker(nil)
	d.OnDeliver(1, evt(0, 99), false) // never registered
	if _, del, _ := d.Totals(); del != 0 {
		t.Fatal("delivery of unknown event counted")
	}
}

func TestReceiversPerEvent(t *testing.T) {
	d := NewDeliveryTracker(nil)
	d.OnPublish(eid(0, 1), 3, 0)
	d.OnPublish(eid(0, 2), 7, 0)
	if got := d.ReceiversPerEvent(0, time.Second); !approx(got, 5) {
		t.Fatalf("ReceiversPerEvent = %v, want 5", got)
	}
	if got := d.ReceiversPerEvent(time.Hour, 2*time.Hour); got != 0 {
		t.Fatalf("empty window ReceiversPerEvent = %v, want 0", got)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	d := NewDeliveryTracker(nil)
	d.OnPublish(eid(0, 1), 2, 10*time.Millisecond)
	d.OnPublish(eid(0, 2), 2, 60*time.Millisecond)
	d.OnPublish(eid(0, 3), 2, 70*time.Millisecond)
	d.OnDeliver(1, evt(0, 1), false)
	d.OnDeliver(1, evt(0, 2), false)
	d.OnDeliver(2, evt(0, 2), false)
	d.OnDeliver(1, evt(0, 3), false)
	d.OnDeliver(2, evt(0, 3), false)
	pts := d.TimeSeries(50 * time.Millisecond)
	if len(pts) != 2 {
		t.Fatalf("%d buckets, want 2", len(pts))
	}
	if pts[0].Time != 0 || !approx(pts[0].Rate, 0.5) {
		t.Fatalf("bucket 0 = %+v, want t=0 rate=0.5", pts[0])
	}
	if pts[1].Time != 50*time.Millisecond || !approx(pts[1].Rate, 1.0) {
		t.Fatalf("bucket 1 = %+v, want t=50ms rate=1.0", pts[1])
	}
}

func TestTimeSeriesPanicsOnBadBucket(t *testing.T) {
	d := NewDeliveryTracker(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero bucket")
		}
	}()
	d.TimeSeries(0)
}

func TestTrafficClassification(t *testing.T) {
	tr := NewTraffic(3)
	tr.OnSend(0, 1, evt(0, 1), false)
	tr.OnSend(0, 1, &wire.GossipPush{Gossiper: 0}, false)
	tr.OnSend(1, 2, &wire.GossipSubPull{Gossiper: 1}, false)
	tr.OnSend(1, 2, &wire.GossipPubPull{Gossiper: 1}, false)
	tr.OnSend(2, 0, &wire.GossipRandom{Gossiper: 2}, false)
	tr.OnSend(2, 0, &wire.Request{Requester: 2}, true)
	tr.OnSend(1, 0, &wire.Retransmit{Responder: 1, Events: []*wire.Event{evt(0, 1), evt(0, 2)}}, true)
	tr.OnSend(0, 1, &wire.Subscribe{Pattern: 1}, false)

	if got := tr.GossipTotal(); got != 5 {
		t.Fatalf("GossipTotal = %d, want 5", got)
	}
	if got := tr.EventTotal(); got != 3 {
		t.Fatalf("EventTotal = %d, want 3 (1 routed + 2 retransmitted)", got)
	}
	if got := tr.ControlTotal(); got != 1 {
		t.Fatalf("ControlTotal = %d, want 1", got)
	}
	if got := tr.GossipPerDispatcher(); !approx(got, 5.0/3) {
		t.Fatalf("GossipPerDispatcher = %v, want 5/3", got)
	}
	if got := tr.GossipEventRatio(); !approx(got, 5.0/3) {
		t.Fatalf("GossipEventRatio = %v, want 5/3", got)
	}
}

func TestTrafficLosses(t *testing.T) {
	tr := NewTraffic(2)
	tr.OnLoss(0, 1, evt(0, 1), false)
	tr.OnLoss(0, 1, evt(0, 2), false)
	tr.OnLoss(0, 1, &wire.GossipPush{}, false)
	if got := tr.Losses(wire.KindEvent); got != 2 {
		t.Fatalf("event losses = %d, want 2", got)
	}
	if got := tr.Losses(wire.KindGossipPush); got != 1 {
		t.Fatalf("gossip losses = %d, want 1", got)
	}
}

func TestTrafficEmptyRatios(t *testing.T) {
	tr := NewTraffic(0)
	if tr.GossipPerDispatcher() != 0 || tr.GossipEventRatio() != 0 {
		t.Fatal("empty traffic should report zero ratios")
	}
}

// TestTimeSeriesUnsortedPublishes exercises the defensive merge path of
// the slab-based TimeSeries: even if records were registered out of
// publish order, buckets must come out sorted and fully aggregated.
func TestTimeSeriesUnsortedPublishes(t *testing.T) {
	tr := NewDeliveryTracker(nil)
	at := []sim.Time{5 * time.Second, time.Second, 5 * time.Second, 3 * time.Second, time.Second}
	for i, a := range at {
		id := ident.EventID{Source: 1, Seq: uint32(i)}
		tr.OnPublish(id, 2, a)
		tr.OnDeliver(2, &wire.Event{ID: id}, false)
	}
	pts := tr.TimeSeries(time.Second)
	want := []Point{
		{Time: time.Second, Rate: 0.5, Expected: 4, Delivered: 2},
		{Time: 3 * time.Second, Rate: 0.5, Expected: 2, Delivered: 1},
		{Time: 5 * time.Second, Rate: 0.5, Expected: 4, Delivered: 2},
	}
	if len(pts) != len(want) {
		t.Fatalf("%d buckets, want %d: %+v", len(pts), len(want), pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

// TestDeliveryTrackerRowsMatchMap checks the per-source sequence rows
// that map an event to its record against a map-based model: random
// publishes — ascending, out of order and below a row's base, from
// dense, negative and huge sources, re-publishing known IDs — and
// deliveries of published and unknown events, over two rounds, each
// on a fresh tracker.
// Per-event accounting is compared through windows of width one
// publish-time unit, which isolate each record.
func TestDeliveryTrackerRowsMatchMap(t *testing.T) {
	type rec struct {
		at             sim.Time
		exp, del, recv uint64
	}
	rng := rand.New(rand.NewSource(1))
	srcs := []ident.NodeID{ident.None, 0, 1, 9, 1 << 30}
	for round := 0; round < 2; round++ {
		d := NewDeliveryTracker(nil)
		ref := make(map[ident.EventID]*rec)
		var order []ident.EventID
		for op := 0; op < 3000; op++ {
			id := ident.EventID{Source: srcs[rng.Intn(len(srcs))], Seq: uint32(50 + rng.Intn(200))}
			if rng.Intn(3) == 0 {
				at := sim.Time(len(order))
				exp := 1 + rng.Intn(5)
				d.OnPublish(id, exp, at)
				if r, ok := ref[id]; ok {
					*r = rec{at: at, exp: uint64(exp)} // re-published: accounting restarts
				} else {
					ref[id] = &rec{at: at, exp: uint64(exp)}
				}
				order = append(order, id)
				continue
			}
			recovered, node := rng.Intn(2) == 0, ident.NodeID(rng.Intn(5))
			d.OnDeliver(node, &wire.Event{ID: id}, recovered)
			if r, ok := ref[id]; ok && node != id.Source {
				r.del++
				if recovered {
					r.recv++
				}
			}
		}
		var del, recv uint64
		for id, r := range ref {
			if got, want := d.ReceiversPerEvent(r.at, r.at+1), float64(r.exp); got != want {
				t.Fatalf("round %d: %v expected %v receivers, want %v", round, id, got, want)
			}
			if got, want := d.Rate(r.at, r.at+1), float64(r.del)/float64(r.exp); !approx(got, want) {
				t.Fatalf("round %d: %v rate %v, want %v", round, id, got, want)
			}
			del, recv = del+r.del, recv+r.recv
		}
		if _, gotDel, gotRecv := d.Totals(); gotDel < del || gotRecv < recv {
			t.Fatalf("round %d: totals %d/%d below the live records' %d/%d", round, gotDel, gotRecv, del, recv)
		}
	}
}
