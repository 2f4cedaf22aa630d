package metrics

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Tracker is the delivery-accounting interface the scenario runs
// against. Two implementations exist:
//
//   - DeliveryTracker (exact, the default): per-event records indexed
//     by EventID. Every windowed query filters individual events, and
//     fixed-seed golden tests pin its output bit for bit. Memory and
//     per-delivery cost grow with the number of published events.
//   - StreamingTracker: O(1)-memory counters plus a fixed ring of
//     publish-time buckets and reservoir-sampled latency quantiles.
//     Totals are exact; windowed queries are bucket-granular; quantiles
//     carry reservoir sampling error. Built for heavy-traffic runs
//     where the measurement layer must not cap throughput.
//
// scenario.Params.MetricsMode selects the implementation per run.
type Tracker interface {
	// OnPublish registers a new event with its expected number of
	// receivers (matching subscribers other than the publisher).
	OnPublish(id ident.EventID, expected int, at sim.Time)
	// OnDeliver records a local delivery (recovered or routed).
	OnDeliver(node ident.NodeID, ev *wire.Event, recovered bool)
	// Totals returns cumulative expected/delivered/recovered counts.
	Totals() (expected, delivered, recovered uint64)
	// Rate returns the delivery rate for events published in [from, to).
	Rate(from, to sim.Time) float64
	// RecoveredShare returns the recovered fraction of deliveries of
	// events published in [from, to).
	RecoveredShare(from, to sim.Time) float64
	// ReceiversPerEvent returns the mean expected audience of events
	// published in [from, to).
	ReceiversPerEvent(from, to sim.Time) float64
	// TimeSeries returns the bucketed delivery-rate curve.
	TimeSeries(bucket sim.Time) []Point
	// RoutedLatency returns publish→delivery latency statistics of
	// normally routed deliveries.
	RoutedLatency() LatencyStats
	// RecoveryLatency returns the same for recovered deliveries.
	RecoveryLatency() LatencyStats
}

var (
	_ Tracker = (*DeliveryTracker)(nil)
	_ Tracker = (*StreamingTracker)(nil)
)

// defaultRingBuckets covers 100 s of run at the default 100 ms bucket
// width in 32 KiB of cells.
const defaultRingBuckets = 1024

// StreamingConfig parameterizes a StreamingTracker.
type StreamingConfig struct {
	// Now supplies virtual time for latency measurement; nil disables
	// the latency reservoirs.
	Now func() sim.Time
	// Seed drives the reservoirs' replacement streams. The tracker
	// never draws from kernel streams, so enabling streaming metrics
	// cannot perturb the simulated trajectory.
	Seed int64
	// BucketWidth is the native publish-time bucket of the ring.
	// Windowed queries are answered at this granularity. Must be > 0.
	BucketWidth sim.Time
	// RingBuckets caps the ring length (0 = default 1024). Buckets
	// older than the newest RingBuckets publish-time buckets are folded
	// into an aggregate and drop out of windowed queries; totals stay
	// exact.
	RingBuckets int
	// ReservoirCap is the per-reservoir sample capacity (0 = default).
	ReservoirCap int
}

// streamCell is one publish-time bucket of the ring.
type streamCell struct {
	abs       int64 // absolute bucket number, -1 when empty
	events    uint64
	expected  uint64
	delivered uint64
	recovered uint64
}

// StreamingTracker implements Tracker with memory independent of the
// number of published events: totals are plain counters (exact),
// windowed delivery queries aggregate a fixed-size ring of publish-time
// buckets, and latency quantiles come from deterministic reservoirs.
//
// Deliveries are attributed to the publish-time bucket recorded in the
// event itself (wire.Event.PublishedAt), so no per-event index is
// needed — the event already carries everything the accounting wants.
// Two sources of approximation remain, both bounded and documented in
// DESIGN.md: window edges are rounded to bucket boundaries (exact when
// the measurement window is bucket-aligned, as the scenario defaults
// are), and quantiles carry reservoir sampling error once a reservoir
// overflows. Unlike the exact tracker it cannot distinguish a
// re-published EventID from a new event (both just bump counters) and
// it counts deliveries of events published before tracking started.
type StreamingTracker struct {
	width    sim.Time
	ring     []streamCell
	maxAbs   int64 // highest bucket number a publish has touched
	haveBase bool

	// evicted aggregates buckets that aged out of the ring; late
	// counts deliveries whose publish bucket was already evicted.
	evicted streamCell
	late    uint64

	totalExpected  uint64
	totalDelivered uint64
	totalRecovered uint64

	now             func() sim.Time
	routedLatency   *LatencyReservoir
	recoveryLatency *LatencyReservoir
}

// NewStreamingTracker returns an empty streaming tracker.
func NewStreamingTracker(cfg StreamingConfig) *StreamingTracker {
	if cfg.BucketWidth <= 0 {
		panic("metrics: streaming tracker needs a positive bucket width")
	}
	n := cfg.RingBuckets
	if n <= 0 {
		n = defaultRingBuckets
	}
	t := &StreamingTracker{
		width:           cfg.BucketWidth,
		ring:            make([]streamCell, n),
		evicted:         streamCell{abs: -1},
		now:             cfg.Now,
		routedLatency:   NewLatencyReservoir(cfg.ReservoirCap, sim.DeriveSeed(cfg.Seed, 'r')),
		recoveryLatency: NewLatencyReservoir(cfg.ReservoirCap, sim.DeriveSeed(cfg.Seed, 'c')),
	}
	for i := range t.ring {
		t.ring[i] = streamCell{abs: -1}
	}
	return t
}

// cell returns the ring cell for absolute bucket abs, advancing the
// window (evicting aged buckets) when abs is ahead of it. Returns nil
// when abs has already been evicted.
func (t *StreamingTracker) cell(abs int64) *streamCell {
	n := int64(len(t.ring))
	if !t.haveBase {
		t.haveBase = true
		t.maxAbs = abs
	}
	if abs > t.maxAbs {
		t.maxAbs = abs
	}
	if abs <= t.maxAbs-n {
		return nil // aged out of the ring
	}
	c := &t.ring[abs%n]
	if c.abs != abs {
		if c.abs >= 0 {
			// The slot still holds a bucket from one window ago: fold
			// it into the aggregate before reuse.
			t.evicted.events += c.events
			t.evicted.expected += c.expected
			t.evicted.delivered += c.delivered
			t.evicted.recovered += c.recovered
		}
		*c = streamCell{abs: abs}
	}
	return c
}

// OnPublish implements Tracker.
func (t *StreamingTracker) OnPublish(_ ident.EventID, expected int, at sim.Time) {
	t.totalExpected += uint64(expected)
	if c := t.cell(int64(at / t.width)); c != nil {
		c.events++
		c.expected += uint64(expected)
	} else {
		t.evicted.events++
		t.evicted.expected += uint64(expected)
	}
}

// OnDeliver implements Tracker. The delivery is attributed to the
// bucket of the event's own publish timestamp.
func (t *StreamingTracker) OnDeliver(node ident.NodeID, ev *wire.Event, recovered bool) {
	if node == ev.ID.Source {
		return
	}
	t.totalDelivered++
	if recovered {
		t.totalRecovered++
	}
	publishedAt := sim.Time(ev.PublishedAt)
	if c := t.cell(int64(publishedAt / t.width)); c != nil {
		c.delivered++
		if recovered {
			c.recovered++
		}
	} else {
		t.late++
		t.evicted.delivered++
		if recovered {
			t.evicted.recovered++
		}
	}
	if t.now != nil {
		latency := t.now() - publishedAt
		if latency >= 0 {
			if recovered {
				t.recoveryLatency.Observe(latency)
			} else {
				t.routedLatency.Observe(latency)
			}
		}
	}
}

// Totals implements Tracker. The counts are exact in both modes.
func (t *StreamingTracker) Totals() (expected, delivered, recovered uint64) {
	return t.totalExpected, t.totalDelivered, t.totalRecovered
}

// LateDeliveries returns how many deliveries referred to publish
// buckets that had already aged out of the ring — a measure of how
// much windowed queries undercount. Zero whenever the ring spans the
// whole run, which the scenario sizes it to do.
func (t *StreamingTracker) LateDeliveries() uint64 { return t.late }

// window iterates the live cells of publish-time window [from, to) in
// bucket order, calling fn for each non-empty one. Window edges round
// outward to bucket boundaries: a bucket is included iff it overlaps
// [from, to), so bucket-aligned windows aggregate exactly the same
// events as the exact tracker.
func (t *StreamingTracker) window(from, to sim.Time, fn func(*streamCell)) {
	if !t.haveBase || to <= from {
		return
	}
	n := int64(len(t.ring))
	lo := int64(from / t.width)
	hi := int64((to - 1) / t.width)
	if min := t.maxAbs - n + 1; lo < min {
		lo = min
	}
	if hi > t.maxAbs {
		hi = t.maxAbs
	}
	for abs := lo; abs <= hi; abs++ {
		if c := &t.ring[abs%n]; c.abs == abs {
			fn(c)
		}
	}
}

// Rate implements Tracker at bucket granularity.
func (t *StreamingTracker) Rate(from, to sim.Time) float64 {
	var exp, del uint64
	t.window(from, to, func(c *streamCell) {
		exp += c.expected
		del += c.delivered
	})
	if exp == 0 {
		return 1
	}
	return float64(del) / float64(exp)
}

// RecoveredShare implements Tracker at bucket granularity.
func (t *StreamingTracker) RecoveredShare(from, to sim.Time) float64 {
	var del, rec uint64
	t.window(from, to, func(c *streamCell) {
		del += c.delivered
		rec += c.recovered
	})
	if del == 0 {
		return 0
	}
	return float64(rec) / float64(del)
}

// ReceiversPerEvent implements Tracker at bucket granularity.
func (t *StreamingTracker) ReceiversPerEvent(from, to sim.Time) float64 {
	var exp, n uint64
	t.window(from, to, func(c *streamCell) {
		exp += c.expected
		n += c.events
	})
	if n == 0 {
		return 0
	}
	return float64(exp) / float64(n)
}

// TimeSeries implements Tracker. The requested bucket must be a
// multiple of the tracker's native width (the scenario passes the same
// width it configured); evicted buckets are not reported.
func (t *StreamingTracker) TimeSeries(bucket sim.Time) []Point {
	if bucket <= 0 {
		panic("metrics: non-positive bucket width")
	}
	if bucket%t.width != 0 {
		panic(fmt.Sprintf("metrics: streaming time series bucket %v is not a multiple of the native width %v", bucket, t.width))
	}
	out := make([]Point, 0, 64)
	if !t.haveBase {
		return out
	}
	group := int64(bucket / t.width)
	n := int64(len(t.ring))
	lo := t.maxAbs - n + 1
	if lo < 0 {
		lo = 0
	}
	for abs := lo; abs <= t.maxAbs; abs++ {
		c := &t.ring[abs%n]
		if c.abs != abs || c.expected == 0 {
			continue
		}
		b := sim.Time(abs/group*group) * t.width
		if m := len(out); m == 0 || out[m-1].Time != b {
			out = append(out, Point{Time: b})
		}
		p := &out[len(out)-1]
		p.Expected += c.expected
		p.Delivered += c.delivered
	}
	for i := range out {
		out[i].Rate = float64(out[i].Delivered) / float64(out[i].Expected)
	}
	return out
}

// RoutedLatency implements Tracker.
func (t *StreamingTracker) RoutedLatency() LatencyStats { return t.routedLatency }

// RecoveryLatency implements Tracker.
func (t *StreamingTracker) RecoveryLatency() LatencyStats { return t.recoveryLatency }
