package epidemic

import (
	"testing"
	"time"
)

// smallParams returns a configuration small enough for unit tests.
func smallParams() Params {
	p := DefaultParams()
	p.N = 25
	p.Duration = 2 * time.Second
	p.MeasureFrom = 300 * time.Millisecond
	p.MeasureTo = 1500 * time.Millisecond
	p.PublishRate = 15
	return p
}

func TestPublicAPIRun(t *testing.T) {
	p := smallParams()
	p.Algorithm = CombinedPull
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate <= 0 || res.DeliveryRate > 1 {
		t.Fatalf("DeliveryRate = %v", res.DeliveryRate)
	}
	if res.Recoveries == 0 {
		t.Fatal("no recoveries")
	}
}

func TestPublicAPIRunAll(t *testing.T) {
	var ps []Params
	for _, a := range []Algorithm{NoRecovery, Push} {
		p := smallParams()
		p.Algorithm = a
		ps = append(ps, p)
	}
	rs, err := RunAll(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results, want 2", len(rs))
	}
	if rs[1].DeliveryRate <= rs[0].DeliveryRate {
		t.Fatalf("push (%.3f) did not beat no-recovery (%.3f)",
			rs[1].DeliveryRate, rs[0].DeliveryRate)
	}
}

func TestPublicAPIAlgorithms(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 6 {
		t.Fatalf("%d algorithms, want 6", len(algos))
	}
	for _, a := range algos {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
}

func TestPublicAPIDefaultsMatchPaperFig2(t *testing.T) {
	p := DefaultParams()
	if p.N != 100 {
		t.Errorf("N = %d, want 100", p.N)
	}
	if p.PatternsPerNode != 2 {
		t.Errorf("πmax = %d, want 2", p.PatternsPerNode)
	}
	if p.NumPatterns != 70 {
		t.Errorf("Π = %d, want 70", p.NumPatterns)
	}
	if p.PublishRate != 50 {
		t.Errorf("publish rate = %v, want 50", p.PublishRate)
	}
	if p.Network.LossRate != 0.1 {
		t.Errorf("ε = %v, want 0.1", p.Network.LossRate)
	}
	if p.Duration != 25*time.Second {
		t.Errorf("duration = %v, want 25s", p.Duration)
	}
	if p.MaxDegree != 4 {
		t.Errorf("max degree = %d, want 4", p.MaxDegree)
	}
	g := DefaultGossipConfig(Push)
	if g.GossipInterval != 30*time.Millisecond {
		t.Errorf("T = %v, want 30ms", g.GossipInterval)
	}
	if g.BufferSize != 1500 {
		t.Errorf("β = %d, want 1500", g.BufferSize)
	}
	if g.BufferPolicy != FIFO {
		t.Errorf("buffer policy = %v, want FIFO", g.BufferPolicy)
	}
}

func TestPublicAPIAdaptiveGossip(t *testing.T) {
	p := smallParams()
	p.Algorithm = SubscriberPull
	p.Adapt = &AdaptConfig{}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapt.Rounds == 0 {
		t.Fatal("Params.Adapt set but no controller round was observed")
	}
}

func TestPublicAPITraceCapturesProtocolActivity(t *testing.T) {
	p := smallParams()
	p.Algorithm = CombinedPull
	p.Trace = NewTrace(512)
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	ring := p.Trace
	if ring.Total() == 0 {
		t.Fatal("trace recorded nothing")
	}
	if ring.Count(TracePublish) == 0 || ring.Count(TraceDeliver) == 0 ||
		ring.Count(TraceSend) == 0 || ring.Count(TraceLoss) == 0 {
		t.Fatalf("trace missing core record kinds (publish=%d deliver=%d send=%d loss=%d)",
			ring.Count(TracePublish), ring.Count(TraceDeliver),
			ring.Count(TraceSend), ring.Count(TraceLoss))
	}
	if got := len(ring.Snapshot()); got != 512 {
		t.Fatalf("retained %d records, want ring capacity 512", got)
	}
}

func TestPublicAPILiveCluster(t *testing.T) {
	cluster, err := NewLiveCluster(4, 4, 5, func(i int) LiveConfig {
		return LiveConfig{Algorithm: CombinedPull}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Nodes[3].Subscribe(PatternID(2))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.Nodes[0].KnownPatternCount() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cluster.Nodes[0].Publish(Content{2})
	for time.Now().Before(deadline) {
		if cluster.Nodes[3].Stats().Delivered == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("live delivery through the public API never happened")
}

func TestPublicAPIBufferPolicies(t *testing.T) {
	for _, pol := range []BufferPolicy{FIFO, Random, LRU} {
		p := smallParams()
		p.Algorithm = CombinedPull
		p.Gossip.BufferPolicy = pol
		res, err := Run(p)
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if res.DeliveryRate <= 0 {
			t.Fatalf("policy %v: no deliveries", pol)
		}
	}
}
