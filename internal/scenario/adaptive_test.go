package scenario

import (
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/check"
	"repro/internal/core"
)

// adaptiveParams is the shared configuration of the adaptive-controller
// tests: lossy enough that the loss estimator has real signal, small
// enough to run in well under a second.
func adaptiveParams(alg core.Algorithm) Params {
	p := DefaultParams()
	p.Seed = 23
	p.N = 30
	p.Duration = 4 * time.Second
	p.MeasureFrom = 500 * time.Millisecond
	p.MeasureTo = 3500 * time.Millisecond
	p.PublishRate = 20
	p.Network.LossRate = 0.05
	p.Algorithm = alg
	p.Gossip = core.DefaultConfig(alg)
	p.Adapt = &adapt.Config{}
	return p
}

// TestAdaptiveFixedSeedMetrics pins the adaptive combined-pull and
// hybrid trajectories under a fixed seed: any unintended change to the
// estimator arithmetic, the controller's setpoint rules, or the
// engine's knob-snapshot plumbing moves these numbers.
func TestAdaptiveFixedSeedMetrics(t *testing.T) {
	for _, tc := range []struct {
		alg              core.Algorithm
		rate             float64
		del, exp, rec    uint64
		kernel           uint64
		adjust           uint64
		modeSw, walkSw   uint64
		pushRds, pullRds uint64
	}{
		{alg: core.CombinedPull,
			rate: 0.9127369956246961, del: 5000, exp: 5499, rec: 460, kernel: 27879,
			adjust: 1786, modeSw: 0, walkSw: 39, pushRds: 0, pullRds: 0},
		{alg: core.Hybrid,
			rate: 0.9229460379193, del: 5066, exp: 5499, rec: 480, kernel: 31878,
			adjust: 2225, modeSw: 50, walkSw: 46, pushRds: 648, pullRds: 3853},
	} {
		tc := tc
		t.Run(tc.alg.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(adaptiveParams(tc.alg))
			if err != nil {
				t.Fatal(err)
			}
			a := res.Adapt
			if res.DeliveryRate != tc.rate || res.Deliveries != tc.del ||
				res.ExpectedDeliveries != tc.exp || res.Recoveries != tc.rec ||
				res.KernelEvents != tc.kernel ||
				a.Adjustments != tc.adjust || a.ModeSwitches != tc.modeSw ||
				a.WalkSwitches != tc.walkSw ||
				a.PushRounds != tc.pushRds || a.PullRounds != tc.pullRds {
				t.Errorf("adaptive %v metrics drifted from pinned values:\n got rate=%v del=%d exp=%d rec=%d kernel=%d adjust=%d mode=%d walk=%d push=%d pull=%d\nwant rate=%v del=%d exp=%d rec=%d kernel=%d adjust=%d mode=%d walk=%d push=%d pull=%d",
					tc.alg, res.DeliveryRate, res.Deliveries, res.ExpectedDeliveries, res.Recoveries,
					res.KernelEvents, a.Adjustments, a.ModeSwitches, a.WalkSwitches, a.PushRounds, a.PullRounds,
					tc.rate, tc.del, tc.exp, tc.rec, tc.kernel,
					tc.adjust, tc.modeSw, tc.walkSw, tc.pushRds, tc.pullRds)
			}
		})
	}
}

// TestAdaptiveCalmConvergesToMinimumOverhead is the scenario-level ε=0
// metamorphic pin: on lossless links with no churn the controller
// relaxes to minimum-overhead knobs (round period at its maximum,
// fanout at its minimum) and never makes a structural switch.
func TestAdaptiveCalmConvergesToMinimumOverhead(t *testing.T) {
	p := adaptiveParams(core.CombinedPull)
	p.Network.LossRate = 0
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate != 1 {
		t.Fatalf("lossless adaptive run dropped events: rate %v", res.DeliveryRate)
	}
	a := res.Adapt
	norm := p.Adapt.Normalized(p.Gossip.GossipInterval)
	if a.MaxInterval != norm.IntervalMax {
		t.Errorf("calm run never relaxed the interval to %v (max seen %v)", norm.IntervalMax, a.MaxInterval)
	}
	if a.MaxFanout != norm.FanoutMin {
		t.Errorf("calm run raised fanout to %d; want pinned at %d", a.MaxFanout, norm.FanoutMin)
	}
	if a.ModeSwitches != 0 || a.WalkSwitches != 0 {
		t.Errorf("structural switches on a calm run: %+v", a)
	}
	if a.MeanLoss != 0 {
		t.Errorf("nonzero loss estimate %v on lossless links", a.MeanLoss)
	}
}

// TestCheckedAdaptiveRunClean runs both adaptive modes under the full
// monitor set — including the adaptation monitor's knob-bounds and
// dwell checks — and demands a clean verdict with identical metrics to
// the unchecked run (the monitor is passive).
func TestCheckedAdaptiveRunClean(t *testing.T) {
	for _, alg := range []core.Algorithm{core.CombinedPull, core.Hybrid} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			plain, err := Run(adaptiveParams(alg))
			if err != nil {
				t.Fatal(err)
			}
			p := adaptiveParams(alg)
			p.Check = check.All()
			checked, err := Run(p)
			if err != nil {
				t.Fatalf("checked adaptive run reported a violation: %v", err)
			}
			if checked.DeliveryRate != plain.DeliveryRate || checked.KernelEvents != plain.KernelEvents ||
				checked.Adapt != plain.Adapt {
				t.Errorf("checked adaptive run diverged from unchecked run:\nunchecked: %+v %+v\nchecked:   %+v %+v",
					plain.DeliveryRate, plain.Adapt, checked.DeliveryRate, checked.Adapt)
			}
		})
	}
}
