package scenario

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// diffParams is the differential corpus base: mid-size, bucket-aligned
// measurement window, enough traffic that every metric is exercised
// but few enough latency samples that the streaming reservoirs retain
// all of them — so quantiles must match the exact histogram to the
// bucket, a far stronger bound than the 5% tolerance asserted below.
func diffParams(alg core.Algorithm, seed int64) Params {
	p := DefaultParams()
	p.Seed = seed
	p.N = 40
	p.Duration = 5 * time.Second
	p.MeasureFrom = 500 * time.Millisecond // multiple of BucketWidth
	p.MeasureTo = 4 * time.Second
	p.PublishRate = 10
	p.Network.LossRate = 0.05
	p.Algorithm = alg
	p.Gossip = core.DefaultConfig(alg)
	return p
}

// quantilesWithin asserts |e-s| <= tol·e for each latency percentile.
func quantilesWithin(t *testing.T, label string, e, s sim.Time, tol float64) {
	t.Helper()
	if e == 0 && s == 0 {
		return
	}
	if diff := math.Abs(float64(e - s)); diff > tol*float64(e) {
		t.Errorf("%s: exact %v vs streaming %v exceeds %.0f%%", label, e, s, tol*100)
	}
}

// TestStreamingMatchesExact runs the differential corpus: identical
// scenarios under both metrics modes. The simulated trajectory must be
// untouched (kernel events, publishes, traffic identical), totals must
// agree exactly, windowed rates must agree exactly (the window is
// bucket-aligned), and latency quantiles must stay within 5%.
func TestStreamingMatchesExact(t *testing.T) {
	algos := []core.Algorithm{core.NoRecovery, core.Push, core.CombinedPull}
	seeds := []int64{1, 7}
	for _, alg := range algos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", alg, seed), func(t *testing.T) {
				p := diffParams(alg, seed)
				e, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				p.MetricsMode = MetricsStreaming
				s, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}

				// Trajectory identity: the tracker is an observer, so
				// switching it cannot change what the simulation did.
				if e.KernelEvents != s.KernelEvents || e.EventsPublished != s.EventsPublished ||
					e.GossipPerDispatcher != s.GossipPerDispatcher || e.EngineStats != s.EngineStats {
					t.Fatalf("metrics mode changed the simulated trajectory:\nexact     %+v\nstreaming %+v", e, s)
				}
				// Counter totals are exact in both modes.
				if e.ExpectedDeliveries != s.ExpectedDeliveries || e.Deliveries != s.Deliveries || e.Recoveries != s.Recoveries {
					t.Fatalf("totals diverge: exact %d/%d/%d streaming %d/%d/%d",
						e.ExpectedDeliveries, e.Deliveries, e.Recoveries,
						s.ExpectedDeliveries, s.Deliveries, s.Recoveries)
				}
				// Bucket-aligned windows aggregate identical event sets.
				if e.DeliveryRate != s.DeliveryRate || e.RecoveredShare != s.RecoveredShare || e.ReceiversPerEvent != s.ReceiversPerEvent {
					t.Fatalf("windowed metrics diverge on an aligned window: exact %v/%v/%v streaming %v/%v/%v",
						e.DeliveryRate, e.RecoveredShare, e.ReceiversPerEvent,
						s.DeliveryRate, s.RecoveredShare, s.ReceiversPerEvent)
				}
				if len(e.TimeSeries) != len(s.TimeSeries) {
					t.Fatalf("time series length: exact %d streaming %d", len(e.TimeSeries), len(s.TimeSeries))
				}
				for i := range e.TimeSeries {
					if e.TimeSeries[i] != s.TimeSeries[i] {
						t.Fatalf("time series bucket %d: exact %+v streaming %+v", i, e.TimeSeries[i], s.TimeSeries[i])
					}
				}
				quantilesWithin(t, "routed p50", e.RoutedLatencyP50, s.RoutedLatencyP50, 0.05)
				quantilesWithin(t, "routed p99", e.RoutedLatencyP99, s.RoutedLatencyP99, 0.05)
				quantilesWithin(t, "recovery p50", e.RecoveryLatencyP50, s.RecoveryLatencyP50, 0.05)
				quantilesWithin(t, "recovery p99", e.RecoveryLatencyP99, s.RecoveryLatencyP99, 0.05)
			})
		}
	}
}

// TestStreamingMatchesExactUnderWorkload repeats the differential on a
// skewed, churning workload: the streaming tracker must stay passive
// (identical trajectory) and exact-in-totals with every workload knob
// on at once.
func TestStreamingMatchesExactUnderWorkload(t *testing.T) {
	p := diffParams(core.CombinedPull, 3)
	p.Workload = Workload{
		ZipfContent:       1.0,
		ZipfSubscriptions: 0.8,
		HotPublishers:     4,
		HotShare:          0.6,
		SubChurnRate:      10,
	}
	e, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.MetricsMode = MetricsStreaming
	s, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.KernelEvents != s.KernelEvents || e.EventsPublished != s.EventsPublished || e.SubChurns != s.SubChurns {
		t.Fatalf("metrics mode changed the churning trajectory:\nexact     %+v\nstreaming %+v", e, s)
	}
	if e.ExpectedDeliveries != s.ExpectedDeliveries || e.Deliveries != s.Deliveries || e.Recoveries != s.Recoveries {
		t.Fatalf("totals diverge: exact %d/%d/%d streaming %d/%d/%d",
			e.ExpectedDeliveries, e.Deliveries, e.Recoveries,
			s.ExpectedDeliveries, s.Deliveries, s.Recoveries)
	}
	if e.DeliveryRate != s.DeliveryRate {
		t.Fatalf("aligned-window delivery rate diverges: %v vs %v", e.DeliveryRate, s.DeliveryRate)
	}
	if e.SubChurns == 0 {
		t.Fatal("churn workload performed no subscription swaps")
	}
}

// TestStreamingDeterministic pins that streaming-mode results are a
// pure function of the seed, including the reservoir quantiles.
func TestStreamingDeterministic(t *testing.T) {
	p := diffParams(core.Push, 5)
	p.MetricsMode = MetricsStreaming
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeliveryRate != b.DeliveryRate || a.RoutedLatencyP50 != b.RoutedLatencyP50 ||
		a.RoutedLatencyP99 != b.RoutedLatencyP99 || a.RecoveryLatencyP99 != b.RecoveryLatencyP99 ||
		a.KernelEvents != b.KernelEvents {
		t.Fatalf("same seed, different streaming results:\n%+v\n%+v", a, b)
	}
}
