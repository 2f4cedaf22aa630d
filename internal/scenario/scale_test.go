package scenario

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestScaleSmoke10k is the overflow-guard smoke for the large-N
// regime: a 10k-node run with a spill-heavy pattern universe must
// complete with sane metrics. Under -race (the CI scale-smoke job)
// this also shakes out data races in the slab-backed node state; the
// wire checkCount guards and the widened tracker/kernel index types
// are all on the executed path.
func TestScaleSmoke10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node smoke in -short mode")
	}
	p := DefaultParams()
	p.Seed = 11
	p.N = 10_000
	p.NumPatterns = 2000 // ~94% of the universe lives in the spill tier
	p.PatternsPerNode = 1
	p.PublishRate = 0.01 // 100 events/s aggregate
	p.Duration = 2 * time.Second
	p.Network.LossRate = 0.05
	p.Algorithm = core.SubscriberPull
	// The paper's 30 ms gossip interval would mean ~650k rounds at
	// N=10k; a smoke test only needs the machinery exercised, not the
	// paper's recovery latency.
	p.Gossip.GossipInterval = 200 * time.Millisecond

	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRate <= 0 || r.DeliveryRate > 1 {
		t.Fatalf("delivery rate %v out of (0,1]", r.DeliveryRate)
	}
	if r.KernelEvents < uint64(p.N) {
		t.Fatalf("only %d kernel events at N=%d; run did not exercise the system", r.KernelEvents, p.N)
	}
}

// TestBigUniverseRecovery is the simulation half of the Π>128
// regression: with a 200-pattern universe, most subscriptions land in
// the spill tier of the tiered PatternSet, and before the tiered set
// the bitset-only candidate paths (gossip subscriber-pull selection,
// lost-buffer pattern sets) understated or ignored them. Recovery must
// clearly beat the no-recovery baseline and actually recover events
// under loss.
func TestBigUniverseRecovery(t *testing.T) {
	base := DefaultParams()
	base.Seed = 7
	base.N = 30
	base.NumPatterns = 200
	base.PatternsPerNode = 5
	base.Duration = 8 * time.Second
	base.Network.LossRate = 0.05

	run := func(a core.Algorithm) Result {
		p := base
		p.Algorithm = a
		r, err := Run(p)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		return r
	}

	none := run(core.NoRecovery)
	pull := run(core.SubscriberPull)
	if none.DeliveryRate >= 1 {
		t.Fatalf("baseline lost nothing (rate %v); loss model not exercised", none.DeliveryRate)
	}
	if pull.Recoveries == 0 {
		t.Fatalf("subscriber pull recovered no events in a Π=200 universe")
	}
	if pull.DeliveryRate <= none.DeliveryRate {
		t.Fatalf("subscriber pull rate %v not above baseline %v at Π=200",
			pull.DeliveryRate, none.DeliveryRate)
	}
}
