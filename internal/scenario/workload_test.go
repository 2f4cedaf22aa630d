package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestZipfWorkloadConcentratesInterest pins the point of correlated
// skew: when both content and subscriptions follow the same popularity
// ranking, hot events meet many subscribers, so the mean expected
// audience rises well above the uniform workload's.
func TestZipfWorkloadConcentratesInterest(t *testing.T) {
	p := quickParams()
	uniform, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workload = Workload{ZipfContent: 1.0, ZipfSubscriptions: 1.0}
	skewed, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.ReceiversPerEvent <= uniform.ReceiversPerEvent {
		t.Fatalf("correlated Zipf skew did not raise receivers/event: uniform %v, skewed %v",
			uniform.ReceiversPerEvent, skewed.ReceiversPerEvent)
	}
	// Skew must stay deterministic under the seed.
	again, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if again.DeliveryRate != skewed.DeliveryRate || again.KernelEvents != skewed.KernelEvents {
		t.Fatal("Zipf workload is not deterministic under the seed")
	}
}

// TestHotPublishersConcentrateLoad verifies the hot-spot split via the
// trace: hot publishers carry ~HotShare of the events, and the
// aggregate publish volume matches the uniform workload's ballpark.
func TestHotPublishersConcentrateLoad(t *testing.T) {
	p := quickParams()
	p.Trace = trace.New(100_000)
	p.Workload = Workload{HotPublishers: 2, HotShare: 0.7}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var hot, total uint64
	for _, r := range p.Trace.Filter(func(r trace.Record) bool { return r.Kind == trace.Publish }) {
		total++
		if int(r.Node) < 2 {
			hot++
		}
	}
	if total != res.EventsPublished {
		t.Fatalf("trace saw %d publishes, result says %d", total, res.EventsPublished)
	}
	share := float64(hot) / float64(total)
	if share < 0.6 || share > 0.8 {
		t.Fatalf("hot publishers carried %.2f of the load, want ≈0.70", share)
	}
}

// TestSubscriptionChurnRuns exercises churn end to end: swaps happen,
// the run completes with sane metrics, and replay is deterministic.
func TestSubscriptionChurnRuns(t *testing.T) {
	p := quickParams()
	p.Algorithm = core.CombinedPull
	p.Gossip = core.DefaultConfig(core.CombinedPull)
	p.Workload = Workload{SubChurnRate: 25}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SubChurns == 0 {
		t.Fatal("no subscription swaps at 25 swaps/s over 3 s")
	}
	if a.DeliveryRate <= 0 || a.DeliveryRate > 1 {
		t.Fatalf("DeliveryRate = %v under churn, want (0, 1]", a.DeliveryRate)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SubChurns != b.SubChurns || a.DeliveryRate != b.DeliveryRate || a.KernelEvents != b.KernelEvents {
		t.Fatalf("churn replay diverged: %d/%v/%d vs %d/%v/%d",
			a.SubChurns, a.DeliveryRate, a.KernelEvents, b.SubChurns, b.DeliveryRate, b.KernelEvents)
	}
}

// TestSubChurnFixedSeedMetrics pins TestSubscriptionChurnRuns's
// trajectory bit for bit: how many swaps happened, how many kernel
// events and deliveries the run produced, and the exact delivery rate.
// Any change to the order of "chur" stream draws or to where the churn
// generator sits in the kernel's tie-break order shows up here.
func TestSubChurnFixedSeedMetrics(t *testing.T) {
	p := quickParams()
	p.Algorithm = core.CombinedPull
	p.Gossip = core.DefaultConfig(core.CombinedPull)
	p.Workload = Workload{SubChurnRate: 25}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantChurns     = 81
		wantKernel     = 19387
		wantDeliveries = 3271
		wantRateBits   = 0x3fe99f8cb976a53e // 0.8007262823422605
	)
	if res.SubChurns != wantChurns || res.KernelEvents != wantKernel ||
		res.Deliveries != wantDeliveries || math.Float64bits(res.DeliveryRate) != wantRateBits {
		t.Errorf("subscription-churn metrics drifted:\n got churns=%d kernel=%d deliveries=%d rate=%#x (%v)\nwant churns=%d kernel=%d deliveries=%d rate=%#x",
			res.SubChurns, res.KernelEvents, res.Deliveries, math.Float64bits(res.DeliveryRate), res.DeliveryRate,
			wantChurns, wantKernel, wantDeliveries, uint64(wantRateBits))
	}
}

// TestSubChurnUnderFaultPlan combines subscription churn with node
// churn: both are fault-injector mutations on their own streams, so
// the run replays bit for bit, and swaps keep happening while
// dispatchers crash and restart around them.
func TestSubChurnUnderFaultPlan(t *testing.T) {
	p := churnParams()
	p.Workload = Workload{SubChurnRate: 25}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SubChurns == 0 || a.Crashes == 0 {
		t.Fatalf("swaps=%d crashes=%d, want both > 0", a.SubChurns, a.Crashes)
	}
	a.Params, b.Params = Params{}, Params{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

func TestWorkloadValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"negative zipf", func(p *Params) { p.Workload.ZipfContent = -1 }, "Zipf"},
		{"hot share without hot publishers", func(p *Params) { p.Workload.HotShare = 0.5 }, "HotShare"},
		{"all publishers hot", func(p *Params) { p.Workload.HotPublishers = p.N }, "non-hot"},
		{"hot share above one", func(p *Params) { p.Workload.HotPublishers = 2; p.Workload.HotShare = 1.5 }, "HotShare"},
		{"negative churn", func(p *Params) { p.Workload.SubChurnRate = -3 }, "SubChurnRate"},
		{"churn with check", func(p *Params) {
			p.Workload.SubChurnRate = 5
			p.Check = &check.Options{Conservation: true}
		}, "Check"},
		{"unknown metrics mode", func(p *Params) { p.MetricsMode = 99 }, "MetricsMode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := quickParams()
			tc.mut(&p)
			_, err := Run(p)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
