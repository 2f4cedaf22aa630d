package scenario

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
)

// TestLosslessRunsDeliverEverything is the first metamorphic relation:
// with ε = 0 on both channels, no faults, and no reconfigurations,
// every algorithm must achieve a delivery rate of exactly 1.0 with
// zero recoveries — there is nothing to recover, and any recovery
// would mean the engines hallucinate losses. The runs execute under
// full invariant checking.
func TestLosslessRunsDeliverEverything(t *testing.T) {
	for _, alg := range core.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			p := DefaultParams()
			p.Seed = 11
			p.N = 20
			p.Duration = 2 * time.Second
			p.MeasureFrom = 100 * time.Millisecond
			p.MeasureTo = 1500 * time.Millisecond
			p.PublishRate = 12
			p.Algorithm = alg
			p.Gossip = core.DefaultConfig(alg)
			p.Network.LossRate = 0
			p.Network.OOBLossRate = 0
			p.Check = check.All()
			r, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.DeliveryRate != 1.0 {
				t.Errorf("DeliveryRate = %.17g, want exactly 1.0", r.DeliveryRate)
			}
			if r.Recoveries != 0 {
				t.Errorf("Recoveries = %d, want 0 on a lossless channel", r.Recoveries)
			}
			if r.RecoveredShare != 0 {
				t.Errorf("RecoveredShare = %.17g, want 0", r.RecoveredShare)
			}
			if s := r.EngineStats; s.Recovered != 0 || s.RequestsSent != 0 {
				t.Errorf("engines recovered %d events via %d requests on a lossless channel",
					s.Recovered, s.RequestsSent)
			}
		})
	}
}

// TestLossMonotonicallyDegradesDelivery is the second metamorphic
// relation: with recovery disabled, raising ε can only lower the
// delivery rate. Individual seeds see different loss draws per ε, so
// the relation is asserted on the mean over a fixed seed set, with a
// tolerance far below the effect size (each ε step costs well over a
// percentage point of delivery; the seed noise on the mean is an order
// of magnitude smaller).
func TestLossMonotonicallyDegradesDelivery(t *testing.T) {
	epsilons := []float64{0, 0.05, 0.1, 0.2, 0.3}
	seeds := []int64{1, 2, 3, 4, 5}
	const tolerance = 0.005

	means := make([]float64, len(epsilons))
	for i, eps := range epsilons {
		sum := 0.0
		for _, seed := range seeds {
			p := DefaultParams()
			p.Seed = seed
			p.N = 20
			p.Duration = 2 * time.Second
			p.MeasureFrom = 100 * time.Millisecond
			p.MeasureTo = 1500 * time.Millisecond
			p.PublishRate = 12
			p.Algorithm = core.NoRecovery
			p.Gossip = core.DefaultConfig(core.NoRecovery)
			p.Network.LossRate = eps
			res, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.DeliveryRate
		}
		means[i] = sum / float64(len(seeds))
	}
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1]+tolerance {
			t.Errorf("mean delivery rate rose with loss: ε=%v → %.4f but ε=%v → %.4f (means %v)",
				epsilons[i-1], means[i-1], epsilons[i], means[i], means)
		}
	}
	if means[0] != 1.0 {
		t.Errorf("ε=0 mean delivery rate = %.17g, want exactly 1.0", means[0])
	}
}
