// Package metrics implements the measurements of the paper's
// evaluation (Sec. IV): the delivery rate ("the ratio between the
// number of events correctly received by a process and those that
// would be received in a fully reliable scenario"), its time series,
// the gossip overhead per dispatcher, the gossip/event message ratio,
// and the receivers-per-event statistic of Fig. 7.
package metrics

import (
	"slices"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/wire"
)

// eventRecord tracks one published event's delivery accounting.
type eventRecord struct {
	publishedAt sim.Time
	expected    uint32
	delivered   uint32
	recovered   uint32
}

// DeliveryTracker accounts expected and actual deliveries per event.
//
// Expected counts come from global knowledge of the stable subscription
// state (the simulation knows every subscriber); a delivery is counted
// at most once per (event, dispatcher) because the dispatcher's
// received-set already deduplicates. Deliveries at the publisher itself
// are excluded on both sides.
type DeliveryTracker struct {
	// records is a slab of per-event accounting, appended in publish
	// order (so publishedAt is nondecreasing along the slice); srcs and
	// seqs map an event to its slab position through one row per
	// source, indexed by sequence number — sources number their events
	// 1, 2, 3, … (paper Sec. III-B), so a row is dense. A publish costs
	// one append to the slab and one to the source's row, a delivery
	// two slice loads, and every aggregation below is a cache-friendly
	// linear scan in deterministic order.
	records []eventRecord
	srcs    ident.RowIndex // source -> position in seqs
	seqs    []seqRow
	now     func() sim.Time

	totalExpected  uint64
	totalDelivered uint64
	totalRecovered uint64

	routedLatency   *LatencyHistogram
	recoveryLatency *LatencyHistogram
}

// seqRow maps one source's sequence numbers to slab positions: pos[i]
// is one more than the position of sequence number base+i, 0 when that
// number was never published. Like ident.SeqSet, a row costs the span
// between its lowest and highest sequence number.
type seqRow struct {
	base uint32
	pos  []int32
}

// NewDeliveryTracker returns an empty tracker. now supplies the current
// virtual time for latency measurement; pass nil to disable latency
// histograms.
func NewDeliveryTracker(now func() sim.Time) *DeliveryTracker {
	return &DeliveryTracker{
		now:             now,
		routedLatency:   NewLatencyHistogram(),
		recoveryLatency: NewLatencyHistogram(),
	}
}

// RoutedLatency returns the publish→delivery latency statistics of
// normally routed deliveries.
func (t *DeliveryTracker) RoutedLatency() LatencyStats { return t.routedLatency }

// RecoveryLatency returns the same statistics for recovered deliveries
// — the time a subscriber stayed without an event it should have had.
func (t *DeliveryTracker) RecoveryLatency() LatencyStats { return t.recoveryLatency }

// OnPublish registers a new event with its expected number of receivers
// (matching subscribers other than the publisher).
func (t *DeliveryTracker) OnPublish(id ident.EventID, expected int, at sim.Time) {
	rec := eventRecord{publishedAt: at, expected: uint32(expected)}
	if p := t.position(id); *p != 0 {
		t.records[*p-1] = rec // re-published ID: reset its accounting
	} else {
		*p = int32(len(t.records)) + 1
		t.records = append(t.records, rec)
	}
	t.totalExpected += uint64(expected)
}

// lookup returns id's slab position.
func (t *DeliveryTracker) lookup(id ident.EventID) (int, bool) {
	r, ok := t.srcs.Row(int32(id.Source))
	if !ok {
		return 0, false
	}
	row := &t.seqs[r]
	i := id.Seq - row.base
	if id.Seq < row.base || i >= uint32(len(row.pos)) || row.pos[i] == 0 {
		return 0, false
	}
	return int(row.pos[i]) - 1, true
}

// position returns the cell holding id's slab position plus one,
// growing id's row to cover it.
func (t *DeliveryTracker) position(id ident.EventID) *int32 {
	r, added := t.srcs.Add(int32(id.Source))
	if added {
		if r < cap(t.seqs) {
			t.seqs = t.seqs[:r+1]
		} else {
			t.seqs = append(t.seqs, seqRow{})
		}
	}
	row := &t.seqs[r]
	switch {
	case len(row.pos) == 0:
		row.base = id.Seq
	case id.Seq < row.base:
		// Extend downward: shift the existing cells up.
		k := int(row.base - id.Seq)
		n := len(row.pos)
		row.pos = append(row.pos, make([]int32, k)...)
		copy(row.pos[k:], row.pos[:n])
		clear(row.pos[:k])
		row.base = id.Seq
	}
	i := int(id.Seq - row.base)
	if i >= len(row.pos) {
		row.pos = append(row.pos, make([]int32, i+1-len(row.pos))...)
	}
	return &row.pos[i]
}

// OnDeliver records a local delivery. Self-deliveries at the publisher
// are ignored; deliveries of unknown events (published before tracking
// started) are ignored too.
func (t *DeliveryTracker) OnDeliver(node ident.NodeID, ev *wire.Event, recovered bool) {
	if node == ev.ID.Source {
		return
	}
	i, ok := t.lookup(ev.ID)
	if !ok {
		return
	}
	rec := &t.records[i]
	rec.delivered++
	t.totalDelivered++
	if recovered {
		rec.recovered++
		t.totalRecovered++
	}
	if t.now != nil {
		latency := t.now() - rec.publishedAt
		if latency >= 0 {
			if recovered {
				t.recoveryLatency.Observe(latency)
			} else {
				t.routedLatency.Observe(latency)
			}
		}
	}
}

// Totals returns the cumulative expected, delivered, and recovered
// delivery counts over all tracked events.
func (t *DeliveryTracker) Totals() (expected, delivered, recovered uint64) {
	return t.totalExpected, t.totalDelivered, t.totalRecovered
}

// Rate returns the overall delivery rate for events published inside
// [from, to). Events expected by nobody are neutral. Returns 1 when no
// deliveries were expected.
func (t *DeliveryTracker) Rate(from, to sim.Time) float64 {
	var exp, del uint64
	for i := range t.records {
		rec := &t.records[i]
		if rec.publishedAt < from || rec.publishedAt >= to {
			continue
		}
		exp += uint64(rec.expected)
		del += uint64(rec.delivered)
	}
	if exp == 0 {
		return 1
	}
	return float64(del) / float64(exp)
}

// RecoveredShare returns the fraction of deliveries in [from, to) that
// arrived through recovery rather than normal routing.
func (t *DeliveryTracker) RecoveredShare(from, to sim.Time) float64 {
	var del, rec uint64
	for i := range t.records {
		r := &t.records[i]
		if r.publishedAt < from || r.publishedAt >= to {
			continue
		}
		del += uint64(r.delivered)
		rec += uint64(r.recovered)
	}
	if del == 0 {
		return 0
	}
	return float64(rec) / float64(del)
}

// ReceiversPerEvent returns the mean number of expected receivers per
// event published in [from, to) — the quantity of paper Fig. 7.
func (t *DeliveryTracker) ReceiversPerEvent(from, to sim.Time) float64 {
	var exp, n uint64
	for i := range t.records {
		rec := &t.records[i]
		if rec.publishedAt < from || rec.publishedAt >= to {
			continue
		}
		exp += uint64(rec.expected)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(exp) / float64(n)
}

// Point is one bucket of the delivery-rate time series.
type Point struct {
	// Time is the start of the bucket (events are bucketed by publish
	// time).
	Time sim.Time
	// Rate is the final delivery rate of the bucket's events.
	Rate float64
	// Expected and Delivered are the bucket's raw counts.
	Expected, Delivered uint64
}

// TimeSeries buckets events by publish time and returns per-bucket
// delivery rates, ordered by time. Empty buckets are skipped.
//
// Records are appended in publish order, so consecutive records land in
// the same or a later bucket: one linear scan accumulates directly into
// the output slice, with no intermediate map. The defensive merge pass
// only runs if the slab ever turns out to be unsorted.
func (t *DeliveryTracker) TimeSeries(bucket sim.Time) []Point {
	if bucket <= 0 {
		panic("metrics: non-positive bucket width")
	}
	out := make([]Point, 0, 64)
	sorted := true
	for i := range t.records {
		rec := &t.records[i]
		if rec.expected == 0 {
			continue
		}
		b := rec.publishedAt / bucket * bucket
		if n := len(out); n == 0 || out[n-1].Time != b {
			if n > 0 && b < out[n-1].Time {
				sorted = false
			}
			out = append(out, Point{Time: b})
		}
		p := &out[len(out)-1]
		p.Expected += uint64(rec.expected)
		p.Delivered += uint64(rec.delivered)
	}
	if !sorted {
		slices.SortFunc(out, func(a, b Point) int {
			switch {
			case a.Time < b.Time:
				return -1
			case a.Time > b.Time:
				return 1
			default:
				return 0
			}
		})
		merged := out[:0]
		for _, p := range out {
			if n := len(merged); n > 0 && merged[n-1].Time == p.Time {
				merged[n-1].Expected += p.Expected
				merged[n-1].Delivered += p.Delivered
				continue
			}
			merged = append(merged, p)
		}
		out = merged
	}
	for i := range out {
		out[i].Rate = float64(out[i].Delivered) / float64(out[i].Expected)
	}
	return out
}

// Traffic counts message transmissions per dispatcher and per class,
// implementing network.Observer. Classification follows the paper's
// overhead analysis (Sec. IV-E): gossip messages are digests and
// recovery requests; event messages are routed events plus
// retransmitted events (a Retransmit bundling k events counts as k
// event messages).
type Traffic struct {
	gossipByNode []uint64
	eventByNode  []uint64
	controlSent  uint64
	lossByKind   [256]uint64 // indexed by wire.Kind
}

var _ network.Observer = (*Traffic)(nil)

// NewTraffic returns a Traffic observer for n dispatchers.
func NewTraffic(n int) *Traffic {
	return &Traffic{
		gossipByNode: make([]uint64, n),
		eventByNode:  make([]uint64, n),
	}
}

// OnSend implements network.Observer.
func (t *Traffic) OnSend(from, _ ident.NodeID, msg wire.Message, _ bool) {
	switch m := msg.(type) {
	case *wire.Event:
		t.eventByNode[from]++
	case *wire.Retransmit:
		t.eventByNode[from] += uint64(len(m.Events))
	case *wire.Subscribe, *wire.Unsubscribe:
		t.controlSent++
	default:
		if msg.Kind().IsGossip() {
			t.gossipByNode[from]++
		}
	}
}

// OnLoss implements network.Observer.
func (t *Traffic) OnLoss(_, _ ident.NodeID, msg wire.Message, _ bool) {
	t.lossByKind[msg.Kind()]++
}

// GossipTotal returns the total number of gossip messages sent.
func (t *Traffic) GossipTotal() uint64 {
	var sum uint64
	for _, v := range t.gossipByNode {
		sum += v
	}
	return sum
}

// EventTotal returns the total number of event messages sent (routed
// plus retransmitted).
func (t *Traffic) EventTotal() uint64 {
	var sum uint64
	for _, v := range t.eventByNode {
		sum += v
	}
	return sum
}

// ControlTotal returns the number of subscription-control messages.
func (t *Traffic) ControlTotal() uint64 { return t.controlSent }

// Losses returns how many transmissions of the given kind were lost.
func (t *Traffic) Losses(k wire.Kind) uint64 { return t.lossByKind[k] }

// GossipPerDispatcher returns the mean number of gossip messages sent
// by one dispatcher — the left-hand metric of paper Figs. 9 and 10.
func (t *Traffic) GossipPerDispatcher() float64 {
	if len(t.gossipByNode) == 0 {
		return 0
	}
	return float64(t.GossipTotal()) / float64(len(t.gossipByNode))
}

// GossipEventRatio returns gossip messages / event messages — the
// right-hand metric of paper Fig. 9. Returns 0 when no event messages
// were sent.
func (t *Traffic) GossipEventRatio() float64 {
	ev := t.EventTotal()
	if ev == 0 {
		return 0
	}
	return float64(t.GossipTotal()) / float64(ev)
}
