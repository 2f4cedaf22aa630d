package sim

import "math/rand"

// Ticker invokes a handler periodically in virtual time. It is the
// building block for gossip rounds: the paper has every dispatcher
// start a round each gossip interval T (Sec. IV-A), with dispatchers
// naturally desynchronized; Ticker supports a random initial phase for
// that purpose.
type Ticker struct {
	k       *Kernel
	period  Time
	fn      Handler
	stopped bool
	pending Canceler
}

// NewTicker schedules fn every period, with the first firing after
// phase. It panics when period is not positive.
func NewTicker(k *Kernel, period, phase Time, fn Handler) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	t.pending = k.After(phase, t.tick)
	return t
}

// NewJitteredTicker schedules fn every period with the initial phase
// drawn uniformly from [0, period), using rng.
func NewJitteredTicker(k *Kernel, period Time, rng *rand.Rand, fn Handler) *Ticker {
	phase := Time(rng.Int63n(int64(period)))
	return NewTicker(k, period, phase, fn)
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.pending = t.k.After(t.period, t.tick)
	}
}

// SetPeriod changes the interval between subsequent firings. The
// currently pending firing keeps its scheduled time. Used by the
// closed-loop adaptive controller (internal/adapt).
func (t *Ticker) SetPeriod(period Time) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = period
}

// Period returns the current interval.
func (t *Ticker) Period() Time { return t.period }

// Stop cancels all future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}
