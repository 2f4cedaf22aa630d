// Package core implements the paper's primary contribution: the
// epidemic algorithms that recover events lost by the best-effort
// content-based publish-subscribe layer (paper Sec. III).
//
// Five recovery variants are provided, matching the evaluation in
// Sec. IV: proactive push with positive digests, subscriber-based pull,
// publisher-based pull, their probabilistic combination, and the
// random-routing pull baseline. A sixth pseudo-variant, NoRecovery,
// is the paper's no-recovery baseline and installs no engine at all.
package core

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/sim"
)

// Algorithm selects the recovery variant.
type Algorithm int

// Recovery algorithms evaluated in the paper (Sec. IV).
const (
	// NoRecovery is the baseline: plain best-effort dispatching.
	NoRecovery Algorithm = iota + 1
	// Push gossips positive digests of cached events along the
	// dispatching tree (Sec. III-B, "Push").
	Push
	// SubscriberPull gossips negative digests toward subscribers of a
	// locally subscribed pattern (Sec. III-B, "Subscriber-Based Pull").
	SubscriberPull
	// PublisherPull source-routes negative digests back toward the
	// publisher of the missing events (Sec. III-B, "Publisher-Based
	// Pull").
	PublisherPull
	// CombinedPull mixes the two pull variants per round with
	// probability PSource (Sec. IV-A, "Combining pull approaches").
	CombinedPull
	// RandomPull routes negative digests entirely at random — the
	// evaluation's sanity baseline (Sec. IV, intro).
	RandomPull
	// Hybrid is our extension beyond the paper (ROADMAP item 5): the
	// engine starts in push mode and switches push ↔ combined pull at
	// runtime as the online loss/churn estimator crosses thresholds
	// (internal/adapt). Not part of Algorithms(): the paper's
	// evaluation set stays the five variants above.
	Hybrid
)

var algorithmNames = map[Algorithm]string{
	NoRecovery:     "no-recovery",
	Push:           "push",
	SubscriberPull: "subscriber-pull",
	PublisherPull:  "publisher-pull",
	CombinedPull:   "combined-pull",
	RandomPull:     "random-pull",
	Hybrid:         "hybrid",
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm maps a name (as printed by String) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Algorithms lists every variant in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{NoRecovery, RandomPull, Push, SubscriberPull, PublisherPull, CombinedPull}
}

// NeedsSeqTags reports whether the algorithm relies on per-(source,
// pattern) sequence numbers for loss detection.
func (a Algorithm) NeedsSeqTags() bool {
	switch a {
	case SubscriberPull, PublisherPull, CombinedPull, RandomPull, Hybrid:
		return true
	default:
		return false
	}
}

// NeedsRoutes reports whether the algorithm requires events to record
// the route they travelled (publisher-based pull).
func (a Algorithm) NeedsRoutes() bool {
	return a == PublisherPull || a == CombinedPull || a == Hybrid
}

// Config parameterizes one recovery engine. Zero values are replaced
// by the paper defaults via Normalize.
type Config struct {
	// Algorithm is the recovery variant.
	Algorithm Algorithm
	// GossipInterval is T, the time between gossip rounds (paper
	// default 0.03 s).
	GossipInterval sim.Time
	// BufferSize is β, the event-buffer capacity (paper default 1500).
	BufferSize int
	// BufferPolicy is the replacement policy (paper: FIFO).
	BufferPolicy cache.Policy
	// PForward is the probability of forwarding a gossip message to
	// each eligible neighbor. The paper names the parameter without
	// giving its value; see DESIGN.md.
	PForward float64
	// PSource is the probability that a combined-pull round is
	// publisher-based.
	PSource float64
	// LostCapacity bounds the Lost buffer (entries).
	LostCapacity int
	// LostTTL expires Lost entries that were never recovered.
	LostTTL sim.Time
	// PendingTTL suppresses duplicate push requests for the same event
	// within this window.
	PendingTTL sim.Time
	// Adapt, when non-nil, enables the closed-loop controller
	// (internal/adapt; paper Sec. IV-E suggests adapting T via ref.
	// [14]): an online loss/churn/latency estimator adapts PForward,
	// PSource, fanout, and the round period within bounds.
	// Required (and defaulted) for Algorithm == Hybrid.
	Adapt *adapt.Config
}

// DefaultConfig returns the paper's default gossip parameters (Fig. 2)
// for the given algorithm.
func DefaultConfig(a Algorithm) Config {
	return Config{
		Algorithm:      a,
		GossipInterval: 30 * time.Millisecond,
		BufferSize:     1500,
		BufferPolicy:   cache.FIFOPolicy,
		PForward:       0.9,
		PSource:        0.5,
		LostCapacity:   4096,
		LostTTL:        10 * time.Second,
		PendingTTL:     30 * time.Millisecond,
	}
}

// Normalize fills zero fields with defaults and validates ranges.
func (c Config) Normalize() (Config, error) {
	def := DefaultConfig(c.Algorithm)
	if c.GossipInterval == 0 {
		c.GossipInterval = def.GossipInterval
	}
	if c.BufferSize == 0 {
		c.BufferSize = def.BufferSize
	}
	if c.BufferPolicy == 0 {
		c.BufferPolicy = def.BufferPolicy
	}
	if c.PForward == 0 {
		c.PForward = def.PForward
	}
	if c.PSource == 0 {
		c.PSource = def.PSource
	}
	if c.LostCapacity == 0 {
		c.LostCapacity = def.LostCapacity
	}
	if c.LostTTL == 0 {
		c.LostTTL = def.LostTTL
	}
	if c.PendingTTL == 0 {
		c.PendingTTL = def.PendingTTL
	}
	if _, ok := algorithmNames[c.Algorithm]; !ok {
		return c, fmt.Errorf("core: invalid algorithm %d", int(c.Algorithm))
	}
	if c.GossipInterval < 0 || c.BufferSize < 1 {
		return c, fmt.Errorf("core: invalid gossip interval %v or buffer size %d", c.GossipInterval, c.BufferSize)
	}
	if c.PForward < 0 || c.PForward > 1 || c.PSource < 0 || c.PSource > 1 {
		return c, fmt.Errorf("core: probabilities out of range (PForward=%v, PSource=%v)", c.PForward, c.PSource)
	}
	if c.Algorithm == Hybrid && c.Adapt == nil {
		c.Adapt = &adapt.Config{}
	}
	if c.Adapt != nil {
		if err := c.Adapt.Normalized(c.GossipInterval).Validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}
