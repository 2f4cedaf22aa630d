package bench

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// metricsOp is one replayed tracker call of the synthetic stream.
type metricsOp struct {
	publish   bool
	id        ident.EventID
	at        sim.Time // publish time
	now       sim.Time // clock at delivery
	node      ident.NodeID
	expected  int
	recovered bool
}

var (
	metricsOpsOnce sync.Once
	metricsOps     []metricsOp
)

// metricsStream builds (once) the synthetic measurement stream both
// pipeline benchmarks replay: the tracker-visible trace of a 10k-node
// heavy-traffic run — 200,000 published events over 20 s of virtual
// time, ~5 expected receivers each, 85% delivered with sub-second
// latency, 15% of deliveries via recovery. Publish order is time-
// sorted, as in a real run.
func metricsStream() []metricsOp {
	metricsOpsOnce.Do(func() {
		const events = 200_000
		rng := rand.New(rand.NewSource(17))
		span := 20 * time.Second
		gap := sim.Time(int64(span) / events)
		ops := make([]metricsOp, 0, events*6)
		at := sim.Time(0)
		for i := 0; i < events; i++ {
			at += sim.Time(rng.Int63n(int64(2*gap) + 1))
			id := ident.EventID{Source: ident.NodeID(i % 10_000), Seq: uint32(i/10_000 + 1)}
			exp := 3 + rng.Intn(5)
			ops = append(ops, metricsOp{publish: true, id: id, at: at, expected: exp})
			for d := 0; d < exp; d++ {
				if rng.Float64() >= 0.85 {
					continue
				}
				ops = append(ops, metricsOp{
					id:        id,
					at:        at,
					now:       at + sim.Time(rng.Intn(int(800*time.Millisecond))),
					node:      ident.NodeID(10_001 + d),
					recovered: rng.Float64() < 0.15,
				})
			}
		}
		metricsOps = ops
	})
	return metricsOps
}

// replayMetrics drives one tracker through the synthetic stream and
// runs the end-of-run queries a scenario performs, returning the
// number of tracker operations replayed.
func replayMetrics(tr metrics.Tracker, clock *sim.Time, ops []metricsOp) int {
	ev := &wire.Event{}
	for i := range ops {
		op := &ops[i]
		if op.publish {
			tr.OnPublish(op.id, op.expected, op.at)
			continue
		}
		ev.ID = op.id
		ev.PublishedAt = int64(op.at)
		*clock = op.now
		tr.OnDeliver(op.node, ev, op.recovered)
	}
	_ = tr.Rate(time.Second, 18*time.Second)
	_ = tr.RecoveredShare(time.Second, 18*time.Second)
	_ = tr.ReceiversPerEvent(time.Second, 18*time.Second)
	_ = tr.TimeSeries(100 * time.Millisecond)
	_ = tr.RoutedLatency().Quantiles(0.5, 0.99)
	_ = tr.RecoveryLatency().Quantiles(0.5, 0.99)
	return len(ops)
}

// MetricsPipelineExact measures the measurement layer itself at
// heavy-traffic scale: one op is a fresh exact DeliveryTracker
// replaying the full 200k-event synthetic stream plus the end-of-run
// queries — the per-run cost the metrics engine adds to a 10k-node
// simulation. The reported simevents/s counts tracker operations.
func MetricsPipelineExact(b *testing.B) {
	ops := metricsStream()
	var clock sim.Time
	now := func() sim.Time { return clock }
	var replayed uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := metrics.NewDeliveryTracker(now)
		replayed += uint64(replayMetrics(tr, &clock, ops))
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "simevents/s")
	}
}

// MetricsPipelineStreaming is MetricsPipelineExact on the streaming
// tracker: same stream, same queries, O(1) memory. The allocs/op and
// events/s gap against the exact pipeline is the tentpole measurement
// of the streaming engine.
func MetricsPipelineStreaming(b *testing.B) {
	ops := metricsStream()
	var clock sim.Time
	now := func() sim.Time { return clock }
	var replayed uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := metrics.NewStreamingTracker(metrics.StreamingConfig{
			Now:         now,
			Seed:        int64(i + 1),
			BucketWidth: 100 * time.Millisecond,
			RingBuckets: 256,
		})
		replayed += uint64(replayMetrics(tr, &clock, ops))
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "simevents/s")
	}
}

// heavy10kParams is the Scale10k workload with 100× the traffic:
// 10,000 events/s aggregate instead of 100, the regime where
// measurement volume — not node count — is the scaling axis.
func heavy10kParams(seed int64, mode scenario.MetricsMode) scenario.Params {
	p := scenario.DefaultParams()
	p.Seed = seed
	p.N = 10_000
	p.NumPatterns = 2000
	p.PatternsPerNode = 1
	p.PublishRate = 1 // 10k events/s aggregate
	p.Duration = time.Second
	p.MeasureFrom = 100 * time.Millisecond
	p.MeasureTo = 900 * time.Millisecond
	p.Network.LossRate = 0.05
	p.Algorithm = core.SubscriberPull
	p.Gossip = core.DefaultConfig(core.SubscriberPull)
	p.Gossip.GossipInterval = 200 * time.Millisecond
	p.MetricsMode = mode
	return p
}

// Heavy10k is one 10,000-dispatcher run under heavy traffic (10k
// events/s aggregate) with the default exact tracker — the workload
// where per-event measurement state stops being free.
func Heavy10k(b *testing.B) {
	heavy10k(b, scenario.MetricsExact)
}

// Heavy10kStreaming is the same run measured by the streaming engine;
// the pair quantifies what the measurement mode costs at full-scenario
// scale (the isolated measurement-layer gap is MetricsPipeline*).
func Heavy10kStreaming(b *testing.B) {
	heavy10k(b, scenario.MetricsStreaming)
}

func heavy10k(b *testing.B, mode scenario.MetricsMode) {
	var events uint64
	var runner scenario.Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(heavy10kParams(int64(i+1), mode))
		if err != nil {
			b.Fatal(err)
		}
		events += res.KernelEvents
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "simevents/s")
	}
}
