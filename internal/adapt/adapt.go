// Package adapt closes the control loop over the epidemic recovery
// knobs (ROADMAP item 5): a per-node online condition estimator — EWMA
// seqno-gap loss rate, link-mutation churn rate, observed recovery
// latency — drives a deterministic controller that moves the live
// knobs (PForward, PSource, pull fanout, round period) inside
// configured bounds through hysteresis-banded setpoint rules, and
// switches a hybrid engine between proactive push and combined
// pull-based recovery when the estimated conditions cross thresholds.
//
// Everything here is deliberately randomness-free: the controller is a
// pure function of the signals the engine feeds it, so adaptive runs
// stay seed-replayable (every signal is node-local state read at that
// node's own round events). See DESIGN.md Sec. 14.
package adapt

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// Mode is the dispatch mode of a hybrid engine.
type Mode uint8

const (
	// ModeNone marks a non-hybrid controller (knob adaptation only).
	ModeNone Mode = iota
	// ModePush gossips positive digests proactively — cheap and fast
	// while losses are rare.
	ModePush
	// ModePull runs combined pull-based recovery — targeted and robust
	// once losses or churn make push digests wasteful or unreliable.
	ModePull
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModePush:
		return "push"
	case ModePull:
		return "pull"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Knobs is one coherent snapshot of the live gossip knobs. The engine
// reads exactly one Knobs value per round (taken at the round
// boundary), so a mid-round adaptation can never tear between the
// forward and pull phases.
type Knobs struct {
	// PForward thins gossip forwarding per eligible neighbor.
	PForward float64
	// PSource picks the publisher-based arm of a combined-pull round.
	PSource float64
	// Fanout is the number of independent gossip initiations per round.
	Fanout int
	// Interval is the gossip round period.
	Interval sim.Time
	// Walk degrades routed pull digests to random walks: engaged when
	// churn (or a recovery stall) says the routing state the digests
	// rely on is stale — the x-overlay finding that random-pull wins on
	// churned scale-free overlays, made condition-sensitive.
	Walk bool
}

// Signals is what one engine observed since the previous round
// boundary. All fields are deltas or instantaneous node-local values.
type Signals struct {
	// Elapsed is the virtual time since the previous observation.
	Elapsed sim.Time
	// Delivered counts events delivered (first copies, any path).
	Delivered uint64
	// Lost counts newly detected losses (seqno gaps, or missing events
	// in push digests for pure-push engines).
	Lost uint64
	// Recovered counts events recovered through gossip.
	Recovered uint64
	// Outstanding is the current Lost-buffer occupancy.
	Outstanding int
	// LinkChanges counts this node's adjacency mutations (link up/down
	// events) since the previous observation.
	LinkChanges uint64
}

// Config bounds and tunes the controller. The zero value of a field
// selects its default (see Normalized); explicit values are validated.
type Config struct {
	// IntervalMin/IntervalMax bound the adapted round period.
	// Defaults: base/3 and base*4, where base is the configured
	// gossip interval.
	IntervalMin, IntervalMax sim.Time
	// PForwardMin/PForwardMax bound the forwarding probability
	// (defaults 0.5 and 1.0).
	PForwardMin, PForwardMax float64
	// PSourceMin/PSourceMax bound the combined-pull source probability
	// (defaults 0.1 and 0.9).
	PSourceMin, PSourceMax float64
	// FanoutMin/FanoutMax bound the per-round gossip fanout
	// (defaults 1 and 3).
	FanoutMin, FanoutMax int

	// LossGain is the per-sample EWMA gain of the loss estimate
	// (default 0.25).
	LossGain float64
	// ChurnTau is the time constant of the churn-rate estimate: one
	// link change bumps the estimate by roughly one unit, decaying
	// with this constant (default 1s). The decay is the rational form
	// tau/(tau+dt) — pure IEEE arithmetic, no transcendentals.
	ChurnTau sim.Time
	// LatencyGain is the per-sample EWMA gain of the recovery-latency
	// estimate (default 0.25).
	LatencyGain float64

	// LossLow/LossHigh is the hysteresis band of the loss estimate:
	// above High the controller tightens (shrink interval, raise
	// PForward, raise fanout) and a hybrid engine switches to pull;
	// below Low it relaxes and the hybrid switches back to push
	// (defaults 0.02 and 0.08).
	LossLow, LossHigh float64
	// ChurnLow/ChurnHigh is the hysteresis band of the churn estimate,
	// in recent link changes (defaults 0.25 and 2).
	ChurnLow, ChurnHigh float64
	// LatencyHigh tightens the interval when the recovery-latency
	// estimate exceeds it (default 8×base).
	LatencyHigh sim.Time
	// StallRounds engages the random-walk degradation after this many
	// consecutive rounds with outstanding losses and zero recoveries
	// (default 2): routed digests are evidently not reaching anyone
	// who can serve them.
	StallRounds int
	// CalmRounds is the streak of calm rounds (loss below the band,
	// churn below the band, empty Lost buffer) required before a
	// structural revert — walk back to routed digests, hybrid back to
	// push (default 8). Degrading needs only a short stall streak;
	// reverting needs a long calm streak. The asymmetry is deliberate:
	// a wrong degrade costs some overhead, a wrong revert hands the
	// next fault wave to the routed machinery that just failed.
	CalmRounds int

	// Shrink (<1) multiplies the interval on tighten, Grow (>1) on
	// relax (defaults 0.7 and 1.15 — tighten fast, relax slowly).
	Shrink, Grow float64
	// PStep is the additive step for PForward/PSource (default 0.05).
	PStep float64
	// Dwell is the minimum time between hybrid mode or walk switches —
	// the anti-flapping guard (default 500ms).
	Dwell sim.Time
}

// Normalized fills zero fields with defaults derived from the engine's
// configured gossip interval and returns the completed config.
func (c Config) Normalized(base sim.Time) Config {
	if base <= 0 {
		base = 30 * time.Millisecond
	}
	if c.IntervalMin == 0 {
		c.IntervalMin = base / 3
	}
	if c.IntervalMax == 0 {
		c.IntervalMax = base * 4
	}
	if c.PForwardMin == 0 {
		c.PForwardMin = 0.5
	}
	if c.PForwardMax == 0 {
		c.PForwardMax = 1.0
	}
	if c.PSourceMin == 0 {
		c.PSourceMin = 0.1
	}
	if c.PSourceMax == 0 {
		c.PSourceMax = 0.9
	}
	if c.FanoutMin == 0 {
		c.FanoutMin = 1
	}
	if c.FanoutMax == 0 {
		c.FanoutMax = 3
	}
	if c.LossGain == 0 {
		c.LossGain = 0.25
	}
	if c.ChurnTau == 0 {
		c.ChurnTau = time.Second
	}
	if c.LatencyGain == 0 {
		c.LatencyGain = 0.25
	}
	if c.LossLow == 0 {
		c.LossLow = 0.02
	}
	if c.LossHigh == 0 {
		c.LossHigh = 0.08
	}
	if c.ChurnLow == 0 {
		c.ChurnLow = 0.25
	}
	if c.ChurnHigh == 0 {
		c.ChurnHigh = 2
	}
	if c.LatencyHigh == 0 {
		c.LatencyHigh = 8 * base
	}
	if c.StallRounds == 0 {
		c.StallRounds = 2
	}
	if c.CalmRounds == 0 {
		c.CalmRounds = 8
	}
	if c.Shrink == 0 {
		c.Shrink = 0.7
	}
	if c.Grow == 0 {
		c.Grow = 1.15
	}
	if c.PStep == 0 {
		c.PStep = 0.05
	}
	if c.Dwell == 0 {
		c.Dwell = 500 * time.Millisecond
	}
	return c
}

// Validate checks a normalized config.
func (c Config) Validate() error {
	switch {
	case c.IntervalMin <= 0 || c.IntervalMax < c.IntervalMin:
		return fmt.Errorf("adapt: invalid interval bounds [%v, %v]", c.IntervalMin, c.IntervalMax)
	case c.PForwardMin < 0 || c.PForwardMax > 1 || c.PForwardMax < c.PForwardMin:
		return fmt.Errorf("adapt: invalid PForward bounds [%v, %v]", c.PForwardMin, c.PForwardMax)
	case c.PSourceMin < 0 || c.PSourceMax > 1 || c.PSourceMax < c.PSourceMin:
		return fmt.Errorf("adapt: invalid PSource bounds [%v, %v]", c.PSourceMin, c.PSourceMax)
	case c.FanoutMin < 1 || c.FanoutMax < c.FanoutMin:
		return fmt.Errorf("adapt: invalid fanout bounds [%d, %d]", c.FanoutMin, c.FanoutMax)
	case c.LossGain <= 0 || c.LossGain > 1 || c.LatencyGain <= 0 || c.LatencyGain > 1:
		return fmt.Errorf("adapt: gains must be in (0,1] (loss=%v, latency=%v)", c.LossGain, c.LatencyGain)
	case c.ChurnTau <= 0:
		return fmt.Errorf("adapt: invalid churn tau %v", c.ChurnTau)
	case c.LossLow < 0 || c.LossHigh <= c.LossLow || c.LossHigh > 1:
		return fmt.Errorf("adapt: invalid loss band [%v, %v]", c.LossLow, c.LossHigh)
	case c.ChurnLow < 0 || c.ChurnHigh <= c.ChurnLow:
		return fmt.Errorf("adapt: invalid churn band [%v, %v]", c.ChurnLow, c.ChurnHigh)
	case c.LatencyHigh <= 0:
		return fmt.Errorf("adapt: invalid latency threshold %v", c.LatencyHigh)
	case c.StallRounds < 1:
		return fmt.Errorf("adapt: invalid stall rounds %d", c.StallRounds)
	case c.CalmRounds < 1:
		return fmt.Errorf("adapt: invalid calm rounds %d", c.CalmRounds)
	case c.Shrink <= 0 || c.Shrink >= 1 || c.Grow <= 1:
		return fmt.Errorf("adapt: invalid step factors (shrink=%v, grow=%v)", c.Shrink, c.Grow)
	case c.PStep <= 0 || c.PStep > 1:
		return fmt.Errorf("adapt: invalid probability step %v", c.PStep)
	case c.Dwell <= 0:
		return fmt.Errorf("adapt: invalid dwell %v", c.Dwell)
	}
	return nil
}

// Estimator maintains the three condition estimates. Exported for the
// hand-trace unit tests; engines use it through the Controller.
type Estimator struct {
	cfg Config

	loss       float64
	lossSeeded bool

	churn float64

	latencySec float64
	latSeeded  bool
}

// NewEstimator builds an estimator over a normalized config.
func NewEstimator(cfg Config) *Estimator { return &Estimator{cfg: cfg} }

// ObserveRound folds one round's signals into the estimates.
func (e *Estimator) ObserveRound(sig Signals) {
	if n := sig.Lost + sig.Delivered; n > 0 {
		sample := float64(sig.Lost) / float64(n)
		if !e.lossSeeded {
			e.loss, e.lossSeeded = sample, true
		} else {
			e.loss += e.cfg.LossGain * (sample - e.loss)
		}
	}
	if sig.Elapsed > 0 {
		// Rational decay tau/(tau+dt): one link change bumps the
		// estimate by ~1 and fades with time constant tau, so the
		// estimate reads as "link changes in the recent past".
		dt := float64(sig.Elapsed)
		tau := float64(e.cfg.ChurnTau)
		decay := tau / (tau + dt)
		rate := float64(sig.LinkChanges) / (dt / float64(time.Second))
		e.churn = e.churn*decay + rate*(1-decay)
	}
}

// ObserveLatency folds one recovery latency sample into the estimate.
func (e *Estimator) ObserveLatency(d sim.Time) {
	if d < 0 {
		return
	}
	sec := float64(d) / float64(time.Second)
	if !e.latSeeded {
		e.latencySec, e.latSeeded = sec, true
	} else {
		e.latencySec += e.cfg.LatencyGain * (sec - e.latencySec)
	}
}

// Loss returns the EWMA loss-fraction estimate in [0, 1].
func (e *Estimator) Loss() float64 { return e.loss }

// Churn returns the decayed link-change estimate.
func (e *Estimator) Churn() float64 { return e.churn }

// Latency returns the EWMA recovery-latency estimate.
func (e *Estimator) Latency() sim.Time {
	return sim.Time(e.latencySec * float64(time.Second))
}

// Snapshot is one round-boundary observation: the knobs the next round
// will run with plus the estimator state behind them. It feeds the
// adaptation invariant monitor and the knob-trajectory metrics.
type Snapshot struct {
	// At is the virtual time of the round boundary.
	At sim.Time
	// Mode is the hybrid dispatch mode (ModeNone for non-hybrid).
	Mode Mode
	// Knobs is the coherent knob set for the next round.
	Knobs Knobs
	// Loss, Churn, Latency are the current estimates.
	Loss, Churn float64
	Latency     sim.Time
	// Stall is the consecutive no-recovery-while-outstanding round
	// count driving the walk degradation.
	Stall int
}

// Stats summarizes one controller's trajectory.
type Stats struct {
	// Rounds counts observations; Adjustments counts rounds where at
	// least one knob moved.
	Rounds, Adjustments uint64
	// ModeSwitches counts hybrid push↔pull transitions; WalkSwitches
	// counts routed↔walk digest transitions.
	ModeSwitches, WalkSwitches uint64
	// PushRounds/PullRounds split hybrid rounds by mode.
	PushRounds, PullRounds uint64
	// WalkRounds counts rounds run with the walk degradation engaged.
	WalkRounds uint64
	// MinInterval/MaxInterval are the extremes the period reached.
	MinInterval, MaxInterval sim.Time
	// MinPForward/MaxPForward are the extremes PForward reached.
	MinPForward, MaxPForward float64
	// MaxFanout is the largest fanout used.
	MaxFanout int
	// Loss, Churn are the final estimates; Mode the final mode.
	Loss, Churn float64
	Mode        Mode
}

// RunStats aggregates controller stats across a run's engines.
type RunStats struct {
	// Engines counts controllers merged in.
	Engines int
	// Counter sums across engines.
	Rounds, Adjustments        uint64
	ModeSwitches, WalkSwitches uint64
	PushRounds, PullRounds     uint64
	WalkRounds                 uint64
	// Knob extremes across all engines and rounds.
	MinInterval, MaxInterval sim.Time
	MinPForward, MaxPForward float64
	MaxFanout                int
	// MeanLoss/MeanChurn average the final per-engine estimates.
	MeanLoss, MeanChurn float64
}

// Merge folds one controller's stats into the aggregate.
func (r *RunStats) Merge(s Stats) {
	if r.Engines == 0 {
		r.MinInterval, r.MaxInterval = s.MinInterval, s.MaxInterval
		r.MinPForward, r.MaxPForward = s.MinPForward, s.MaxPForward
	} else {
		r.MinInterval = min(r.MinInterval, s.MinInterval)
		r.MaxInterval = max(r.MaxInterval, s.MaxInterval)
		r.MinPForward = math.Min(r.MinPForward, s.MinPForward)
		r.MaxPForward = math.Max(r.MaxPForward, s.MaxPForward)
	}
	r.MeanLoss = (r.MeanLoss*float64(r.Engines) + s.Loss) / float64(r.Engines+1)
	r.MeanChurn = (r.MeanChurn*float64(r.Engines) + s.Churn) / float64(r.Engines+1)
	r.Engines++
	r.Rounds += s.Rounds
	r.Adjustments += s.Adjustments
	r.ModeSwitches += s.ModeSwitches
	r.WalkSwitches += s.WalkSwitches
	r.PushRounds += s.PushRounds
	r.PullRounds += s.PullRounds
	r.WalkRounds += s.WalkRounds
	r.MaxFanout = max(r.MaxFanout, s.MaxFanout)
}

// Controller is the per-node deterministic control loop. It draws no
// randomness: given the same signal sequence it produces the same knob
// trajectory, so adaptive runs replay bit-identically.
type Controller struct {
	cfg    Config
	est    *Estimator
	hybrid bool

	knobs Knobs
	base  Knobs // initial knobs; PSource drifts back here when calm
	mode  Mode

	lastSwitch sim.Time
	stall      int
	calm       int
	stats      Stats
}

// New builds a controller. cfg must be normalized (Normalized) and
// valid; initial seeds the knob state and is clamped into bounds.
// Hybrid controllers start in ModePush — the cheap proactive mode —
// and earn their way into pull when conditions degrade.
func New(cfg Config, initial Knobs, hybrid bool) *Controller {
	k := Knobs{
		PForward: clampF(initial.PForward, cfg.PForwardMin, cfg.PForwardMax),
		PSource:  clampF(initial.PSource, cfg.PSourceMin, cfg.PSourceMax),
		Fanout:   clampI(initial.Fanout, cfg.FanoutMin, cfg.FanoutMax),
		Interval: clampT(initial.Interval, cfg.IntervalMin, cfg.IntervalMax),
	}
	c := &Controller{
		cfg:    cfg,
		est:    NewEstimator(cfg),
		hybrid: hybrid,
		knobs:  k,
		base:   k,
	}
	if hybrid {
		c.mode = ModePush
	}
	c.stats.MinInterval, c.stats.MaxInterval = k.Interval, k.Interval
	c.stats.MinPForward, c.stats.MaxPForward = k.PForward, k.PForward
	c.stats.MaxFanout = k.Fanout
	return c
}

// Config returns the controller's (normalized) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Knobs returns the current coherent knob snapshot.
func (c *Controller) Knobs() Knobs { return c.knobs }

// Mode returns the current hybrid mode (ModeNone when non-hybrid).
func (c *Controller) Mode() Mode { return c.mode }

// ObserveLatency feeds one recovery-latency sample.
func (c *Controller) ObserveLatency(d sim.Time) { c.est.ObserveLatency(d) }

// Observe folds one round's signals into the estimates, applies the
// setpoint rules, and returns the snapshot the next round runs with.
func (c *Controller) Observe(now sim.Time, sig Signals) Snapshot {
	c.est.ObserveRound(sig)
	if sig.Outstanding > 0 && sig.Recovered == 0 {
		c.stall++
	} else {
		c.stall = 0
	}
	if c.est.Loss() < c.cfg.LossLow && c.est.Churn() < c.cfg.ChurnLow && sig.Outstanding == 0 {
		c.calm++
	} else {
		c.calm = 0
	}

	loss, churn, lat := c.est.Loss(), c.est.Churn(), c.est.Latency()
	prev := c.knobs
	k := c.knobs
	stalled := c.stall >= c.cfg.StallRounds

	// Interval / PForward / fanout: tighten above the loss band (or
	// when recovery latency blows past its threshold), relax below it.
	// Inside the band the knobs hold — the hysteresis that keeps a
	// noisy estimate from oscillating the setpoints.
	//
	// A persistent stall overrides the band: recovery attempts are not
	// landing at all, so tightening further only queues more digests
	// behind a channel that is failing (under FIFO link serialization,
	// over-tightening congests the very links event dissemination needs
	// — the loss estimate then reads the late arrivals as more loss and
	// locks the spiral). Re-anchor at the calibrated baseline instead
	// and let the walk degradation do the recovering.
	switch {
	case stalled:
		k.Interval = towardT(k.Interval, c.base.Interval, c.cfg.Shrink, c.cfg.Grow)
		k.PForward = stepToward(k.PForward, c.base.PForward, c.cfg.PStep)
		k.Fanout = stepTowardI(k.Fanout, c.base.Fanout)
	case loss > c.cfg.LossHigh || lat > c.cfg.LatencyHigh:
		k.Interval = clampT(sim.Time(float64(k.Interval)*c.cfg.Shrink), c.cfg.IntervalMin, c.cfg.IntervalMax)
		k.PForward = clampF(k.PForward+c.cfg.PStep, c.cfg.PForwardMin, c.cfg.PForwardMax)
		k.Fanout = clampI(k.Fanout+1, c.cfg.FanoutMin, c.cfg.FanoutMax)
	case loss < c.cfg.LossLow && c.stall == 0:
		k.Interval = clampT(sim.Time(float64(k.Interval)*c.cfg.Grow), c.cfg.IntervalMin, c.cfg.IntervalMax)
		k.PForward = clampF(k.PForward-c.cfg.PStep, c.cfg.PForwardMin, c.cfg.PForwardMax)
		k.Fanout = clampI(k.Fanout-1, c.cfg.FanoutMin, c.cfg.FanoutMax)
	}

	// PSource: under churn, recorded publisher routes go stale, so
	// lean on the subscriber arm; when calm, drift back to baseline.
	switch {
	case churn > c.cfg.ChurnHigh:
		k.PSource = clampF(k.PSource-c.cfg.PStep, c.cfg.PSourceMin, c.cfg.PSourceMax)
	case churn < c.cfg.ChurnLow:
		k.PSource = stepToward(k.PSource, c.base.PSource, c.cfg.PStep)
	}

	// Walk and mode transitions share the dwell clock: at most one
	// structural switch per dwell window, so the hybrid cannot flap
	// even if an estimate rides exactly on a threshold (DESIGN.md
	// Sec. 14 gives the argument).
	if now-c.lastSwitch >= c.cfg.Dwell {
		walk, mode := k.Walk, c.mode
		// Degrading is eager, reverting is sticky: a stall (or high
		// churn) means routed recovery is failing right now, so fall
		// back to random walks — and, for the hybrid, make sure the
		// node is pulling at all. The way back requires a sustained
		// calm streak (CalmRounds), not one clean reading: the backlog
		// drains between churn waves, and disengaging then would hand
		// the next wave straight back to the routed digests that just
		// failed — re-engage, re-disengage, and flap at the dwell rate.
		switch {
		case stalled || churn > c.cfg.ChurnHigh:
			walk = true
			if c.hybrid {
				mode = ModePull
			}
		case c.calm >= c.cfg.CalmRounds:
			walk = false
		}
		if c.hybrid && mode == c.mode {
			switch {
			case mode == ModePush && (loss > c.cfg.LossHigh || churn > c.cfg.ChurnHigh):
				mode = ModePull
			case mode == ModePull && c.calm >= c.cfg.CalmRounds:
				mode = ModePush
			}
		}
		// A combined walk+mode change is one structural switch: both
		// take effect at this observation and share one dwell window.
		if walk != k.Walk || mode != c.mode {
			if walk != k.Walk {
				c.stats.WalkSwitches++
			}
			if mode != c.mode {
				c.stats.ModeSwitches++
			}
			k.Walk = walk
			c.mode = mode
			c.lastSwitch = now
		}
	}

	c.knobs = k
	c.stats.Rounds++
	if k != prev {
		c.stats.Adjustments++
	}
	switch c.mode {
	case ModePush:
		c.stats.PushRounds++
	case ModePull:
		c.stats.PullRounds++
	}
	if k.Walk {
		c.stats.WalkRounds++
	}
	c.stats.MinInterval = min(c.stats.MinInterval, k.Interval)
	c.stats.MaxInterval = max(c.stats.MaxInterval, k.Interval)
	c.stats.MinPForward = math.Min(c.stats.MinPForward, k.PForward)
	c.stats.MaxPForward = math.Max(c.stats.MaxPForward, k.PForward)
	c.stats.MaxFanout = max(c.stats.MaxFanout, k.Fanout)

	return Snapshot{
		At:      now,
		Mode:    c.mode,
		Knobs:   k,
		Loss:    loss,
		Churn:   churn,
		Latency: lat,
		Stall:   c.stall,
	}
}

// Stats returns the trajectory summary with the final estimates filled
// in.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.Loss, s.Churn = c.est.Loss(), c.est.Churn()
	s.Mode = c.mode
	return s
}

func clampF(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

func clampI(v, lo, hi int) int {
	return min(max(v, lo), hi)
}

func clampT(v, lo, hi sim.Time) sim.Time {
	return min(max(v, lo), hi)
}

// stepToward moves v toward target by at most step.
func stepToward(v, target, step float64) float64 {
	switch {
	case v < target:
		return math.Min(v+step, target)
	case v > target:
		return math.Max(v-step, target)
	}
	return v
}

// stepTowardI moves v toward target by at most one.
func stepTowardI(v, target int) int {
	switch {
	case v < target:
		return v + 1
	case v > target:
		return v - 1
	}
	return v
}

// towardT moves v toward target multiplicatively — shrink when above,
// grow when below — without overshooting.
func towardT(v, target sim.Time, shrink, grow float64) sim.Time {
	switch {
	case v > target:
		return max(sim.Time(float64(v)*shrink), target)
	case v < target:
		return min(sim.Time(float64(v)*grow), target)
	}
	return v
}
