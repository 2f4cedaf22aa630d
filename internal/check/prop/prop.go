// Package prop is a property-based scenario harness: it generates
// random simulation cases — network size, loss rates, publish rates,
// reconfiguration and churn plans — and runs every recovery algorithm
// over them under full invariant checking (internal/check). The
// property is simply "no monitor fires"; the generator's job is to
// explore corners the pinned scenarios never visit.
//
// When a case fails, Shrink reduces it before reporting: fall back to
// static gossip (dropping the adaptive controller and Hybrid), drop
// the fault plan, disable reconfiguration, zero the loss, halve the
// duration, the node count, and the publish rate — re-running after
// each step and keeping any reduction that still fails. The final
// reproducer is a short Case literal plus the checker's own
// seed/event/site triple.
//
// Generated cases keep the gossip interval at its 30 ms default and
// the publish rates moderate. The recovery-causality monitor's
// evidence rule tolerates an in-flight race only while gossip rounds
// are much slower than event delivery (see internal/check); the
// generator stays inside that regime on purpose.
package prop

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Case is one generated scenario, algorithm-agnostic: Run drives all
// algorithms over it.
type Case struct {
	Seed        int64
	N           int
	LossRate    float64
	OOBLossRate float64
	PublishRate float64
	Duration    sim.Time
	Reconfig    sim.Time // 0 = no reconfigurations
	ChurnRate   float64  // crashes/second; 0 = no fault plan
	Overlay     topology.Kind
	Repair      scenario.RepairMode
	// Adapt arms the closed-loop controller (internal/adapt) on
	// every algorithm and adds the Hybrid mode to the run, with the
	// adaptation monitor judging knob bounds and dwell.
	Adapt bool
}

func (c Case) String() string {
	return fmt.Sprintf("seed=%d n=%d ε=%.2f εoob=%.2f rate=%.0f dur=%v reconfig=%v churn=%.1f overlay=%v repair=%v adaptive=%v",
		c.Seed, c.N, c.LossRate, c.OOBLossRate, c.PublishRate, c.Duration, c.Reconfig, c.ChurnRate, c.Overlay, c.Repair, c.Adapt)
}

// Generate draws one case. The ranges are chosen to stress the
// monitors — small overlays, loss up to 30%, optional reconfiguration
// and churn — while keeping one case cheap enough that a test can
// afford a dozen of them across all algorithms.
func Generate(rng *rand.Rand) Case {
	c := Case{
		Seed:        rng.Int63n(1 << 30),
		N:           6 + rng.Intn(23), // 6..28
		LossRate:    float64(rng.Intn(7)) * 0.05,
		OOBLossRate: float64(rng.Intn(5)) * 0.05,
		PublishRate: 5 + float64(rng.Intn(4))*5, // 5..20
		Duration:    sim.Time(800+rng.Intn(5)*100) * time.Millisecond,
	}
	if rng.Intn(2) == 1 {
		c.Reconfig = sim.Time(150+rng.Intn(3)*100) * time.Millisecond
	}
	if rng.Intn(2) == 1 {
		c.ChurnRate = 1 + float64(rng.Intn(3))
	}
	// Overlay diversity and repair mode. Reconfiguration is a tree
	// feature (a break splits a tree in two; redundant overlays stay
	// connected), so the draws respect scenario's compatibility rule
	// rather than generating cases normalize would reject. Under either
	// repair mode a tree case keeps its reconfigurations.
	c.Overlay = topology.Kind(rng.Intn(len(topology.Kinds())))
	if rng.Intn(2) == 1 {
		c.Repair = scenario.RepairSelfStabilizing
	}
	if c.Overlay != topology.KindTree {
		c.Reconfig = 0
	}
	c.Adapt = rng.Intn(3) == 1
	return c
}

// Params expands the case into scenario parameters for one algorithm,
// with all five monitors armed.
func (c Case) Params(alg core.Algorithm) scenario.Params {
	p := scenario.DefaultParams()
	p.Seed = c.Seed
	p.N = c.N
	p.Duration = c.Duration
	p.MeasureFrom = c.Duration / 8
	p.MeasureTo = c.Duration - c.Duration/8
	p.PublishRate = c.PublishRate
	p.Algorithm = alg
	p.Gossip = core.DefaultConfig(alg)
	p.Network.LossRate = c.LossRate
	p.Network.OOBLossRate = c.OOBLossRate
	p.ReconfigInterval = c.Reconfig
	p.Overlay = c.Overlay
	p.Repair = c.Repair
	if c.ChurnRate > 0 {
		p.FaultPlan = faults.ChurnPlan(c.Seed, c.N, c.ChurnRate, c.Duration, 200*time.Millisecond)
	}
	if c.Adapt && alg != core.NoRecovery {
		p.Adapt = &adapt.Config{}
	}
	p.Check = check.All()
	return p
}

// Algorithms lists the recovery algorithms the case runs under: the
// paper's five, plus Hybrid when the controller is armed (Hybrid is
// meaningless without it).
func (c Case) Algorithms() []core.Algorithm {
	algs := core.Algorithms()
	if c.Adapt {
		algs = append(algs, core.Hybrid)
	}
	return algs
}

// Run executes the case under every algorithm and returns the first
// violation (a *check.Error wrapped with the algorithm).
func Run(c Case) error {
	for _, alg := range c.Algorithms() {
		if _, err := scenario.Run(c.Params(alg)); err != nil {
			return fmt.Errorf("case [%s] algorithm %s: %w", c, alg, err)
		}
	}
	return nil
}

// Shrink reduces a failing case while it keeps failing, bounded by a
// fixed re-run budget. It returns the smallest failing case found and
// that case's error.
func Shrink(c Case, origErr error) (Case, error) {
	budget := 16
	try := func(cand Case) (error, bool) {
		if budget <= 0 {
			return nil, false
		}
		budget--
		err := Run(cand)
		return err, err != nil
	}
	smaller := []func(Case) Case{
		func(c Case) Case { c.Adapt = false; return c },
		func(c Case) Case { c.Repair = scenario.RepairOracle; return c },
		func(c Case) Case { c.Overlay = topology.KindTree; return c },
		func(c Case) Case { c.ChurnRate = 0; return c },
		func(c Case) Case { c.Reconfig = 0; return c },
		func(c Case) Case { c.LossRate = 0; return c },
		func(c Case) Case { c.OOBLossRate = 0; return c },
		func(c Case) Case { c.Duration /= 2; return c },
		func(c Case) Case { c.N = 6 + (c.N-6)/2; return c },
		func(c Case) Case { c.PublishRate = 5; return c },
	}
	err := origErr
	for progress := true; progress; {
		progress = false
		for _, step := range smaller {
			cand := step(c)
			if cand == c {
				continue
			}
			if candErr, failed := try(cand); failed {
				c, err = cand, candErr
				progress = true
			}
		}
	}
	return c, err
}
