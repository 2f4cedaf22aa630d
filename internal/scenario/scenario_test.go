package scenario

import (
	"testing"
	"time"

	"repro/internal/core"
)

// quickParams returns a small, fast configuration for unit tests.
func quickParams() Params {
	p := DefaultParams()
	p.N = 30
	p.Duration = 3 * time.Second
	p.MeasureFrom = 500 * time.Millisecond
	p.MeasureTo = 2 * time.Second
	p.PublishRate = 20
	return p
}

func TestRunProducesSaneResult(t *testing.T) {
	p := quickParams()
	p.Algorithm = core.CombinedPull
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate <= 0 || res.DeliveryRate > 1 {
		t.Fatalf("DeliveryRate = %v, want (0, 1]", res.DeliveryRate)
	}
	if res.EventsPublished == 0 {
		t.Fatal("no events published")
	}
	if res.ExpectedDeliveries == 0 || res.Deliveries == 0 {
		t.Fatal("no deliveries tracked")
	}
	if res.Recoveries == 0 {
		t.Fatal("no recoveries under 10% loss with combined pull")
	}
	if res.GossipPerDispatcher == 0 {
		t.Fatal("no gossip traffic recorded")
	}
	if len(res.TimeSeries) == 0 {
		t.Fatal("no time series")
	}
	if res.MeanPathLength <= 0 {
		t.Fatal("no mean path length")
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	p := quickParams()
	p.Algorithm = core.Push
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeliveryRate != b.DeliveryRate ||
		a.EventsPublished != b.EventsPublished ||
		a.GossipPerDispatcher != b.GossipPerDispatcher ||
		a.KernelEvents != b.KernelEvents ||
		a.EngineStats != b.EngineStats {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	p := quickParams()
	p.Algorithm = core.NoRecovery
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 999
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventsPublished == b.EventsPublished && a.DeliveryRate == b.DeliveryRate {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRecoveryBeatsBaseline(t *testing.T) {
	base := quickParams()
	base.Algorithm = core.NoRecovery
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rec := quickParams()
	rec.Algorithm = core.CombinedPull
	rr, err := Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	if rr.DeliveryRate <= rb.DeliveryRate {
		t.Fatalf("combined pull (%.3f) did not beat baseline (%.3f)",
			rr.DeliveryRate, rb.DeliveryRate)
	}
}

func TestReliableLinksDeliverEverything(t *testing.T) {
	p := quickParams()
	p.Network.LossRate = 0
	p.Network.OOBLossRate = 0
	p.Algorithm = core.NoRecovery
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate != 1 {
		t.Fatalf("DeliveryRate = %v on reliable links, want exactly 1", res.DeliveryRate)
	}
}

func TestReconfigurationScenarioRuns(t *testing.T) {
	p := quickParams()
	p.Network.LossRate = 0
	p.Network.OOBLossRate = 0
	p.ReconfigInterval = 200 * time.Millisecond
	p.Algorithm = core.CombinedPull
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigurations == 0 {
		t.Fatal("no reconfigurations happened")
	}
	if res.DeliveryRate <= 0.5 {
		t.Fatalf("DeliveryRate = %v under mild reconfiguration, want > 0.5", res.DeliveryRate)
	}
}

func TestOverlappingReconfigurationsRun(t *testing.T) {
	p := quickParams()
	p.Network.LossRate = 0
	p.Network.OOBLossRate = 0
	p.ReconfigInterval = 30 * time.Millisecond // < RepairDelay: overlapping
	p.Algorithm = core.NoRecovery
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigurations < 50 {
		t.Fatalf("only %d reconfigurations in 3s at ρ=30ms", res.Reconfigurations)
	}
	if res.DeliveryRate <= 0.3 || res.DeliveryRate > 1 {
		t.Fatalf("DeliveryRate = %v, implausible", res.DeliveryRate)
	}
}

func TestReconfigurationLosesEventsWithoutRecovery(t *testing.T) {
	p := quickParams()
	p.Network.LossRate = 0
	p.Network.OOBLossRate = 0
	p.ReconfigInterval = 100 * time.Millisecond
	p.Algorithm = core.NoRecovery
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate >= 1 {
		t.Fatal("reconfigurations caused no loss at all — repair model suspiciously perfect")
	}
}

func TestParamValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.N = 1 },
		func(p *Params) { p.PublishRate = -1 },
		func(p *Params) { p.Duration = 0 },
		func(p *Params) { p.NumPatterns = 0 },
		func(p *Params) { p.MeasureFrom = 2 * time.Second; p.MeasureTo = time.Second },
		func(p *Params) { p.Algorithm = core.Push; p.Gossip.PForward = 7 },
		func(p *Params) { p.RepairDelay = -time.Millisecond },
	}
	for i, mutate := range bad {
		p := quickParams()
		mutate(&p)
		if _, err := Run(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestRepairDelayDefault pins the one default every repair path
// shares: zero means the paper's 0.1 s.
func TestRepairDelayDefault(t *testing.T) {
	p := quickParams()
	p.RepairDelay = 0
	n, err := p.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.RepairDelay != 100*time.Millisecond {
		t.Fatalf("RepairDelay 0 normalized to %v, want 100ms", n.RepairDelay)
	}
}

func TestRunAllOrderAndParallelism(t *testing.T) {
	var params []Params
	for _, a := range []core.Algorithm{core.NoRecovery, core.SubscriberPull, core.Push} {
		p := quickParams()
		p.Duration = 2 * time.Second
		p.MeasureFrom = 200 * time.Millisecond
		p.MeasureTo = 1500 * time.Millisecond
		p.Algorithm = a
		params = append(params, p)
	}
	results, err := RunAll(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(params) {
		t.Fatalf("%d results, want %d", len(results), len(params))
	}
	for i, r := range results {
		if r.Params.Algorithm != params[i].Algorithm {
			t.Fatalf("result %d is for %v, want %v", i, r.Params.Algorithm, params[i].Algorithm)
		}
	}
	// RunAll must agree with a serial Run under the same seed.
	serial, err := Run(params[1])
	if err != nil {
		t.Fatal(err)
	}
	if serial.DeliveryRate != results[1].DeliveryRate || serial.KernelEvents != results[1].KernelEvents {
		t.Fatal("parallel run differs from serial run with the same seed")
	}
}

func TestRunSeedsStats(t *testing.T) {
	p := quickParams()
	p.Algorithm = core.NoRecovery
	stats, err := RunSeeds(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Values) != 4 {
		t.Fatalf("got %d values, want 4", len(stats.Values))
	}
	if stats.Min > stats.Mean || stats.Mean > stats.Max {
		t.Fatalf("min/mean/max out of order: %+v", stats)
	}
	if stats.Min == stats.Max {
		t.Fatal("different seeds gave identical delivery — suspicious")
	}
	if stats.RelSpread() <= 0 || stats.RelSpread() > 0.5 {
		t.Fatalf("RelSpread = %v, implausible", stats.RelSpread())
	}
	if stats.Std <= 0 {
		t.Fatal("zero standard deviation across seeds")
	}
}

func TestRunAllPropagatesError(t *testing.T) {
	good := quickParams()
	bad := quickParams()
	bad.N = 0
	if _, err := RunAll([]Params{good, bad}); err == nil {
		t.Fatal("RunAll swallowed an error")
	}
}

func TestZeroPublishRate(t *testing.T) {
	p := quickParams()
	p.PublishRate = 0
	p.Algorithm = core.Push
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsPublished != 0 {
		t.Fatal("events published at zero rate")
	}
	if res.DeliveryRate != 1 {
		t.Fatalf("DeliveryRate = %v with no events, want neutral 1", res.DeliveryRate)
	}
}

func TestReceiversPerEventGrowsWithPatterns(t *testing.T) {
	small := quickParams()
	small.PatternsPerNode = 2
	a, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	big := quickParams()
	big.PatternsPerNode = 20
	b, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if b.ReceiversPerEvent <= a.ReceiversPerEvent {
		t.Fatalf("receivers/event: πmax=20 gives %.2f, πmax=2 gives %.2f — want growth",
			b.ReceiversPerEvent, a.ReceiversPerEvent)
	}
}

// TestRunSeedsRejectsNonPositiveK is the regression test for the
// RunSeeds(p, 0) edge: zero runs used to produce Mean = NaN (0/0) and
// Min/Max = ±Inf leaking into SeedStats; now it is an explicit error.
func TestRunSeedsRejectsNonPositiveK(t *testing.T) {
	p := quickParams()
	for _, k := range []int{0, -3} {
		stats, err := RunSeeds(p, k)
		if err == nil {
			t.Fatalf("RunSeeds(k=%d) succeeded with stats %+v, want error", k, stats)
		}
		if stats.Mean != 0 || stats.Std != 0 || stats.Min != 0 || stats.Max != 0 || stats.Values != nil {
			t.Fatalf("RunSeeds(k=%d) returned non-zero stats %+v alongside error", k, stats)
		}
	}
}
