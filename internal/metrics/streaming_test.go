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

// evtAt builds a delivered event carrying its publish timestamp, as
// wire events do in real runs.
func evtAt(src, seq int, at sim.Time) *wire.Event {
	return &wire.Event{ID: eid(src, seq), PublishedAt: int64(at)}
}

// TestDeliveryTrackerEdgeWindows pins the window semantics of the
// exact tracker: [from, to) half-open on publish time, empty and
// before-first-publish windows neutral.
func TestDeliveryTrackerEdgeWindows(t *testing.T) {
	d := NewDeliveryTracker(nil)
	// One event exactly on a bucket/window boundary, one inside.
	d.OnPublish(eid(0, 1), 2, time.Second)
	d.OnPublish(eid(0, 2), 2, 1500*time.Millisecond)
	d.OnDeliver(1, evt(0, 1), false)
	d.OnDeliver(1, evt(0, 2), true)
	d.OnDeliver(2, evt(0, 2), false)

	// Empty range: from == to.
	if got := d.Rate(time.Second, time.Second); got != 1 {
		t.Fatalf("Rate of empty range = %v, want 1 (neutral)", got)
	}
	if got := d.RecoveredShare(time.Second, time.Second); got != 0 {
		t.Fatalf("RecoveredShare of empty range = %v, want 0", got)
	}
	if got := d.ReceiversPerEvent(time.Second, time.Second); got != 0 {
		t.Fatalf("ReceiversPerEvent of empty range = %v, want 0", got)
	}

	// Range entirely before the first publish.
	if got := d.Rate(0, time.Second); got != 1 {
		t.Fatalf("Rate before first publish = %v, want 1 (neutral)", got)
	}
	if got := d.ReceiversPerEvent(0, time.Second); got != 0 {
		t.Fatalf("ReceiversPerEvent before first publish = %v, want 0", got)
	}

	// Boundary inclusion: an event published exactly at from is in;
	// exactly at to is out.
	if got := d.Rate(time.Second, 1500*time.Millisecond); !approx(got, 0.5) {
		t.Fatalf("Rate [1s, 1.5s) = %v, want 0.5 (boundary event at from included)", got)
	}
	if got := d.ReceiversPerEvent(0, time.Second+1); !approx(got, 2) {
		t.Fatalf("ReceiversPerEvent [0, 1s] = %v, want 2 (event at to excluded)", got)
	}
	if got := d.RecoveredShare(1200*time.Millisecond, 2*time.Second); !approx(got, 0.5) {
		t.Fatalf("RecoveredShare of second event = %v, want 0.5", got)
	}
}

func TestReservoirExactUnderCap(t *testing.T) {
	h := NewLatencyHistogram()
	r := NewLatencyReservoir(1024, 42)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d := sim.Time(rng.Intn(int(50 * time.Millisecond)))
		h.Observe(d)
		r.Observe(d)
	}
	if h.Count() != r.Count() || h.Min() != r.Min() || h.Max() != r.Max() {
		t.Fatalf("count/min/max diverge: hist %d/%v/%v res %d/%v/%v",
			h.Count(), h.Min(), h.Max(), r.Count(), r.Min(), r.Max())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if hq, rq := h.Quantile(q), r.Quantile(q); hq != rq {
			t.Fatalf("q=%v: histogram %v != reservoir %v (reservoir holds all samples, must match exactly)", q, hq, rq)
		}
	}
}

func TestReservoirDeterministicOverflow(t *testing.T) {
	sample := func(seed int64) []sim.Time {
		r := NewLatencyReservoir(256, seed)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10_000; i++ {
			r.Observe(sim.Time(rng.Intn(int(time.Second))))
		}
		return r.Quantiles(0.5, 0.9, 0.99)
	}
	a, b := sample(11), sample(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	// A different replacement seed keeps estimates close to the truth:
	// uniform samples, so the q-quantile is ~q·1s; the 256-sample
	// reservoir should land within ~20% at the median.
	c := sample(99)
	if got, want := float64(c[0]), 0.5*float64(time.Second); math.Abs(got-want)/want > 0.25 {
		t.Fatalf("overflowed reservoir p50 = %v, want within 25%% of %v", sim.Time(got), sim.Time(want))
	}
}

func TestReservoirResetReuse(t *testing.T) {
	r := NewLatencyReservoir(64, 5)
	for i := 0; i < 1000; i++ {
		r.Observe(sim.Time(i) * time.Millisecond)
	}
	r.Reset(5)
	if r.Count() != 0 || r.Mean() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatal("reset reservoir reports stale statistics")
	}
	fresh := NewLatencyReservoir(64, 5)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		d := sim.Time(rng.Intn(int(time.Second)))
		r.Observe(d)
		fresh.Observe(d)
	}
	if r.Quantile(0.9) != fresh.Quantile(0.9) {
		t.Fatal("reset+reused reservoir diverges from a fresh one on the same stream")
	}
}

func TestReservoirNegativePanics(t *testing.T) {
	r := NewLatencyReservoir(8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative latency")
		}
	}()
	r.Observe(-1)
}

// TestStreamingMatchesExactSynthetic replays one synthetic event
// stream into both tracker implementations and requires totals and
// bucket-aligned windowed metrics to agree exactly, and latency
// quantiles to agree exactly while the reservoir holds every sample.
func TestStreamingMatchesExactSynthetic(t *testing.T) {
	const width = 100 * time.Millisecond
	var now sim.Time
	clock := func() sim.Time { return now }
	exact := NewDeliveryTracker(clock)
	stream := NewStreamingTracker(StreamingConfig{
		Now: clock, Seed: 1, BucketWidth: width, RingBuckets: 512,
	})

	rng := rand.New(rand.NewSource(21))
	type pub struct {
		id  ident.EventID
		at  sim.Time
		exp int
	}
	var pubs []pub
	for seq := 1; seq <= 400; seq++ {
		at := sim.Time(rng.Intn(int(20 * time.Second)))
		exp := rng.Intn(6)
		p := pub{id: eid(seq%7, seq), at: at, exp: exp}
		pubs = append(pubs, p)
		exact.OnPublish(p.id, p.exp, p.at)
		stream.OnPublish(p.id, p.exp, p.at)
		for d := 0; d < exp; d++ {
			if rng.Float64() < 0.85 {
				now = p.at + sim.Time(rng.Intn(int(400*time.Millisecond)))
				ev := &wire.Event{ID: p.id, PublishedAt: int64(p.at)}
				rec := rng.Float64() < 0.2
				// d+1 never collides with the source id range [0,7):
				// use node ids above it.
				exact.OnDeliver(ident.NodeID(10+d), ev, rec)
				stream.OnDeliver(ident.NodeID(10+d), ev, rec)
			}
		}
	}

	ee, ed, er := exact.Totals()
	se, sd, sr := stream.Totals()
	if ee != se || ed != sd || er != sr {
		t.Fatalf("totals diverge: exact %d/%d/%d streaming %d/%d/%d", ee, ed, er, se, sd, sr)
	}
	if got := stream.LateDeliveries(); got != 0 {
		t.Fatalf("LateDeliveries = %d on a run the ring fully spans", got)
	}

	windows := [][2]sim.Time{
		{0, 20 * time.Second},
		{time.Second, 18 * time.Second}, // bucket-aligned
		{0, 0},                          // empty
		{30 * time.Second, time.Minute}, // after everything
		{500 * time.Millisecond, 4 * time.Second},
	}
	for _, w := range windows {
		if e, s := exact.Rate(w[0], w[1]), stream.Rate(w[0], w[1]); !approx(e, s) {
			t.Fatalf("Rate%v: exact %v streaming %v", w, e, s)
		}
		if e, s := exact.RecoveredShare(w[0], w[1]), stream.RecoveredShare(w[0], w[1]); !approx(e, s) {
			t.Fatalf("RecoveredShare%v: exact %v streaming %v", w, e, s)
		}
		if e, s := exact.ReceiversPerEvent(w[0], w[1]), stream.ReceiversPerEvent(w[0], w[1]); !approx(e, s) {
			t.Fatalf("ReceiversPerEvent%v: exact %v streaming %v", w, e, s)
		}
	}

	ep, sp := exact.TimeSeries(width), stream.TimeSeries(width)
	if len(ep) != len(sp) {
		t.Fatalf("time series length: exact %d streaming %d", len(ep), len(sp))
	}
	for i := range ep {
		if ep[i] != sp[i] {
			t.Fatalf("time series bucket %d: exact %+v streaming %+v", i, ep[i], sp[i])
		}
	}

	for _, q := range []float64{0.5, 0.9, 0.99} {
		if e, s := exact.RoutedLatency().Quantile(q), stream.RoutedLatency().Quantile(q); e != s {
			t.Fatalf("routed q=%v: exact %v streaming %v (reservoir under cap must match exactly)", q, e, s)
		}
		if e, s := exact.RecoveryLatency().Quantile(q), stream.RecoveryLatency().Quantile(q); e != s {
			t.Fatalf("recovery q=%v: exact %v streaming %v", q, e, s)
		}
	}
}

func TestStreamingSelfDeliveryIgnored(t *testing.T) {
	s := NewStreamingTracker(StreamingConfig{BucketWidth: time.Second})
	s.OnPublish(eid(7, 1), 1, 0)
	s.OnDeliver(7, evtAt(7, 1, 0), false)
	if _, del, _ := s.Totals(); del != 0 {
		t.Fatal("self-delivery counted")
	}
}

// TestStreamingEviction drives a deliberately tiny ring past its span:
// totals must stay exact, late deliveries must be counted, and
// windowed queries over evicted regions degrade to neutral.
func TestStreamingEviction(t *testing.T) {
	s := NewStreamingTracker(StreamingConfig{BucketWidth: time.Second, RingBuckets: 4})
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * time.Second
		s.OnPublish(eid(0, i+1), 2, at)
		s.OnDeliver(1, evtAt(0, i+1, at), false)
	}
	// A delivery referring to bucket 0, long since evicted.
	s.OnDeliver(2, evtAt(0, 1, 0), false)

	exp, del, _ := s.Totals()
	if exp != 20 || del != 11 {
		t.Fatalf("Totals = %d/%d, want 20/11 (exact despite eviction)", exp, del)
	}
	if got := s.LateDeliveries(); got != 1 {
		t.Fatalf("LateDeliveries = %d, want 1", got)
	}
	// Buckets 0–5 are gone; the query window only sees live cells.
	if got := s.Rate(0, 6*time.Second); got != 1 {
		t.Fatalf("Rate over evicted window = %v, want 1 (neutral)", got)
	}
	if got := s.Rate(6*time.Second, 10*time.Second); !approx(got, 0.5) {
		t.Fatalf("Rate over live window = %v, want 0.5", got)
	}
}

func TestStreamingTimeSeriesGrouping(t *testing.T) {
	const width = 100 * time.Millisecond
	exact := NewDeliveryTracker(nil)
	s := NewStreamingTracker(StreamingConfig{BucketWidth: width, RingBuckets: 128})
	rng := rand.New(rand.NewSource(4))
	for i := 1; i <= 60; i++ {
		at := sim.Time(rng.Intn(int(5 * time.Second)))
		exact.OnPublish(eid(0, i), 2, at)
		s.OnPublish(eid(0, i), 2, at)
		ev := evtAt(0, i, at)
		exact.OnDeliver(1, ev, false)
		s.OnDeliver(1, ev, false)
	}
	// Aggregating at 3× the native width must match the exact tracker
	// bucketing at the same width.
	ep, sp := exact.TimeSeries(3*width), s.TimeSeries(3*width)
	if len(ep) != len(sp) {
		t.Fatalf("grouped series length: exact %d streaming %d", len(ep), len(sp))
	}
	for i := range ep {
		if ep[i] != sp[i] {
			t.Fatalf("grouped bucket %d: exact %+v streaming %+v", i, ep[i], sp[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a non-multiple time-series bucket")
		}
	}()
	s.TimeSeries(width + 1)
}
