package flood

import (
	"testing"
	"time"
)

func quick() Params {
	p := DefaultParams()
	p.N = 40
	p.Duration = 4 * time.Second
	p.PublishRate = 20
	return p
}

func TestRunProducesSaneResult(t *testing.T) {
	res, err := Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate <= 0 || res.DeliveryRate > 1 {
		t.Fatalf("DeliveryRate = %v", res.DeliveryRate)
	}
	if res.EventsPublished == 0 || res.EventMessages == 0 {
		t.Fatal("no traffic")
	}
	if res.MessagesPerDelivery <= 0 {
		t.Fatal("no per-delivery cost computed")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a, err := Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestFixedSeedResult pins one run bit for bit, so a change to the
// per-node seen sets (or anything else on the run's path) that alters
// behavior fails loudly.
func TestFixedSeedResult(t *testing.T) {
	got, err := Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		DeliveryRate:           0.8406654343807763,
		EventMessages:          0x41abc,
		MessagesPerDelivery:    118.28847845206684,
		DuplicateReceptions:    0x21503,
		UninterestedReceptions: 0x17969,
		EventsPublished:        0xc84,
	}
	if got != want {
		t.Fatalf("fixed-seed result drifted:\n got %#v\nwant %#v", got, want)
	}
}

func TestPaperCriticismsHold(t *testing.T) {
	// The paper's Sec. V criticism of pure gossip dissemination:
	// events reach non-interested nodes and arrive more than once.
	res, err := Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.UninterestedReceptions == 0 {
		t.Fatal("pure gossip never hit a non-interested node — impossible with Π=70, πmax=2")
	}
	if res.DuplicateReceptions == 0 {
		t.Fatal("pure gossip produced no duplicates — implausible at fanout 3 × 5 rounds")
	}
	// And no delivery guarantee even in the best case: with these
	// fanout/round settings some events miss some subscribers.
	if res.DeliveryRate == 1 {
		t.Fatal("pure gossip delivered everything — the baseline is mis-tuned to look perfect")
	}
}

func TestFanoutImprovesDeliveryAtHigherCost(t *testing.T) {
	small := quick()
	small.Fanout = 2
	big := quick()
	big.Fanout = 5
	a, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if b.DeliveryRate <= a.DeliveryRate {
		t.Fatalf("fanout 5 (%.3f) did not beat fanout 2 (%.3f)", b.DeliveryRate, a.DeliveryRate)
	}
	if b.EventMessages <= a.EventMessages {
		t.Fatal("higher fanout did not cost more messages")
	}
}

func TestValidation(t *testing.T) {
	for _, mutate := range []func(*Params){
		func(p *Params) { p.N = 1 },
		func(p *Params) { p.Fanout = 0 },
		func(p *Params) { p.Rounds = 0 },
		func(p *Params) { p.Duration = 0 },
	} {
		p := quick()
		mutate(&p)
		if _, err := Run(p); err == nil {
			t.Fatalf("invalid params accepted: %+v", p)
		}
	}
}

func BenchmarkFloodRun(b *testing.B) {
	p := quick()
	p.Duration = time.Second
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
