package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file holds the grid specs of the experiments beyond the paper:
// sensitivity sweeps for the constants the paper leaves unspecified
// (Pforward, Psource), the buffer replacement policies after the
// paper's [13] discussion, recovery latency, and the robustness
// extensions the paper never evaluates (node churn, bursty loss,
// workload skew, adaptation, overlay kinds and repair modes). They are
// registered in the generators map in experiments.go under "x-"
// identifiers.

// xPForward sweeps the forwarding probability: the paper names the
// parameter but never gives its value; this sweep documents why 0.9 is
// the calibrated default (delivery saturates while overhead keeps
// climbing).
var xPForward = grid{
	xs:      []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
	quickXs: []float64{0.5, 1.0},
	at:      func(p *scenario.Params, x float64) { p.Gossip.PForward = x },
	series:  algoLines(core.Push, core.CombinedPull),
	xLabel:  "Pforward",
	panels: []panel{
		{"x-pforward-delivery", "Delivery vs Pforward (ε=0.1)", "delivery rate", delivery},
		{"x-pforward-overhead", "Gossip overhead vs Pforward (ε=0.1)", "gossip msgs per dispatcher", gossip},
	},
}

// xPSource sweeps the publisher-side probability of combined pull from
// pure subscriber-based (0) to pure publisher-based (1).
var xPSource = grid{
	xs:      []float64{0, 0.25, 0.5, 0.75, 1},
	quickXs: []float64{0, 1},
	at:      func(p *scenario.Params, x float64) { p.Gossip.PSource = x },
	series:  algoLines(core.CombinedPull),
	xLabel:  "Psource (probability of a publisher-based round)",
	panels:  []panel{{"x-psource", "Combined pull delivery vs Psource (ε=0.1)", "delivery rate", delivery}},
	notes:   []string{"0 = always subscriber-based, 1 = always publisher-based; the mix wins"},
}

// xBufferPolicy compares FIFO (the paper), random replacement, and LRU
// under scarce buffers, where the policy matters most.
var xBufferPolicy = grid{
	xs:      []float64{250, 500, 1000, 1500},
	quickXs: []float64{250, 1000},
	at:      atBufferSize,
	series: []line{
		policyLine("fifo (paper)", cache.FIFOPolicy),
		policyLine("random", cache.RandomPolicy),
		policyLine("lru", cache.LRUPolicy),
	},
	xLabel: "β (buffer size)",
	panels: []panel{{"x-bufferpolicy", "Buffer replacement policy vs delivery, combined pull (ε=0.1)", "delivery rate", delivery}},
}

func policyLine(name string, policy cache.Policy) line {
	return line{name: name, edit: func(p *scenario.Params) {
		p.Algorithm = core.CombinedPull
		p.Gossip.BufferPolicy = policy
	}}
}

// xLatency quantifies the recovery latency the paper only discusses
// qualitatively (Sec. IV-C: "the push approach has a bigger recovery
// latency than pull"): publish→delivery percentiles of recovered
// events per algorithm.
var xLatency = grid{
	series:      algoLines(core.Push, core.SubscriberPull, core.PublisherPull, core.CombinedPull, core.RandomPull),
	quickSeries: algoLines(core.Push, core.CombinedPull),
	xLabel:      "percentile",
	panels: []panel{{id: "x-latency", title: "Recovery latency percentiles per algorithm (ε=0.1)",
		yLabel: "publish→recovered delivery latency (ms)"}},
	curve: func(r scenario.Result) []Point {
		ms := func(t sim.Time) float64 { return round2(float64(t) / float64(time.Millisecond)) }
		return []Point{{X: 50, Y: ms(r.RecoveryLatencyP50)}, {X: 99, Y: ms(r.RecoveryLatencyP99)}}
	},
	notes: []string{"quantifies the paper's qualitative claim that push recovers slower than pull"},
}

// xChurn sweeps the node churn rate (crashes per second across the
// whole system; every crash self-heals after an exponentially
// distributed downtime) and plots the delivery rate of every
// algorithm. The fault plan is derived from the run seed, so the
// figure is exactly reproducible.
var xChurn = grid{
	xs:      []float64{0, 0.25, 0.5, 1, 2},
	quickXs: []float64{0, 1},
	at: func(p *scenario.Params, x float64) {
		if x > 0 {
			p.FaultPlan = faults.ChurnPlan(p.Seed, p.N, x, p.Duration, 500*time.Millisecond)
		}
	},
	series:      paperLines,
	quickSeries: quickLines,
	xLabel:      "churn rate (crashes per second, systemwide)",
	panels: []panel{{"x-churn", "EXTENSION: delivery under node churn (ε=0.1, mean downtime 500ms)",
		"delivery rate", delivery}},
	notes: []string{
		"crashed dispatchers lose all learned state and rejoin at a random attach point",
		"deliveries owed to down subscribers are excluded from Λ (they subscribed, but were dead)",
	},
}

// xBurstLoss compares independent (Bernoulli) losses against bursty
// Gilbert–Elliott losses at the same average rate: epidemic recovery
// relies on temporal diversity, so correlated losses within a burst
// should cost more deliveries than the same number of independent
// ones — and pull variants (which retry across rounds) should close
// the gap better than push.
var xBurstLoss = grid{
	xs:          []float64{0.05, 0.1, 0.2},
	quickXs:     []float64{0.1},
	at:          setLoss,
	series:      burstLines(core.Push, core.CombinedPull),
	quickSeries: burstLines(core.CombinedPull),
	xLabel:      "average loss rate ε",
	panels:      []panel{{"x-burstloss", "EXTENSION: independent vs bursty loss at equal average rate", "delivery rate", delivery}},
	notes:       []string{"Gilbert–Elliott chain: mean burst 4 transmissions, calibrated so AvgLoss() = ε"},
}

// burstLines is, per algorithm, a Bernoulli series and a
// Gilbert–Elliott series at the swept ε.
func burstLines(algos ...core.Algorithm) []line {
	var ls []line
	for _, a := range algos {
		ls = append(ls,
			line{name: fmt.Sprintf("%s, bernoulli", a), edit: func(p *scenario.Params) { p.Algorithm = a }},
			line{name: fmt.Sprintf("%s, gilbert-elliott", a), edit: func(p *scenario.Params) {
				p.Algorithm = a
				p.FaultPlan = burstPlan(p.Network.LossRate)
			}})
	}
	return ls
}

// burstPlan replaces, at t = 0, the Bernoulli loss with a
// Gilbert–Elliott chain of mean burst length 1/PBadToGood = 4
// transmissions. DropBad = 1, so the average loss is the stationary
// bad-state probability, and PGoodToBad is solved so AvgLoss() == e.
func burstPlan(e float64) *faults.Plan {
	const pBadToGood = 0.25
	cfg := network.GilbertElliottConfig{
		PGoodToBad: e * pBadToGood / (1 - e),
		PBadToGood: pBadToGood,
		DropGood:   0,
		DropBad:    1,
	}
	return &faults.Plan{Actions: []faults.Action{{
		Kind: faults.SetLossModel,
		NewModel: func(stream func(tag int64) *rand.Rand) network.LossModel {
			return network.NewGilbertElliott(cfg, stream)
		},
	}}}
}

// xZipf sweeps the workload skew exponent: content and subscription
// patterns both follow a Zipf(s) popularity ranking (s=0 is the
// paper's uniform draw), so interest concentrates on exactly the
// patterns hot events hit. Three effects are measured per algorithm:
// delivery under skew, the expected audience per event (the Fig. 7
// metric, now popularity-weighted), and gossip overhead — gossip digests
// cover a dispatcher's whole buffer, so audience concentration shifts
// the recovery load without changing the digest rate, which is the
// point the overhead series makes. Ferretti's complex-networks
// pub-sub study (PAPERS.md) evaluates under exactly this kind of
// non-uniform workload; the paper's uniform draw is its s=0 corner.
var xZipf = grid{
	duration: 25 * time.Second,
	setup:    func(p *scenario.Params) { p.Network.LossRate = 0.05 },
	xs:       []float64{0, 0.3, 0.6, 0.9, 1.2},
	quickXs:  []float64{0, 0.9},
	at: func(p *scenario.Params, x float64) {
		if x > 0 {
			p.Workload = scenario.Workload{ZipfContent: x, ZipfSubscriptions: x}
		}
	},
	series:      paperLines,
	quickSeries: quickLines,
	xLabel:      "zipf exponent s",
	panels: []panel{
		{"x-zipf", "EXTENSION: delivery under Zipf workload skew", "delivery rate", delivery},
		{"x-zipf-receivers", "EXTENSION: expected audience under Zipf workload skew", "receivers per event", receivers},
		{"x-zipf-overhead", "EXTENSION: gossip overhead under Zipf workload skew", "gossip messages per dispatcher", gossip},
	},
	notes: []string{
		"content and subscriptions share one popularity ranking: pattern 0 is hottest for both",
		"s=0 is the paper's uniform workload; s≈1 is the classic web/content-popularity regime",
		"ε=5%: recovery is active, so skew shows up in delivery and overhead, not just audience",
	},
}

// xAdaptive is the closed-loop controller evaluation: the five static
// recovery algorithms against adaptive combined pull and the hybrid
// push/pull mode, across a regime matrix spanning the fault models
// (independent loss, bursty Gilbert–Elliott loss, node churn) and the
// overlay kinds (tree, scale-free, small-world). The claim under test:
// in every regime the adaptive variants deliver within one percentage
// point of — or better than — the best static algorithm for that
// regime, without knowing the regime in advance.
var xAdaptive = grid{
	xs:          []float64{1, 2, 3, 4, 5, 6},
	quickXs:     []float64{2, 5},
	ordinal:     true,
	at:          func(p *scenario.Params, x float64) { adaptiveRegimes[int(x)-1].edit(p) },
	series:      adaptiveVariants,
	quickSeries: adaptiveVariants[3:],
	xLabel:      "regime (see notes)",
	panels: []panel{
		{"x-adaptive", "EXTENSION: adaptive and hybrid gossip vs the static algorithms across fault regimes",
			"delivery rate", delivery},
		{"x-adaptive-overhead", "EXTENSION: gossip overhead of adaptive and hybrid gossip across fault regimes",
			"gossip msgs per dispatcher", gossip},
	},
	post: adaptiveNotes,
}

// adaptiveRegimes are x-adaptive's fault regimes, numbered from 1.
var adaptiveRegimes = []struct {
	name string
	edit func(p *scenario.Params)
}{
	{"calm ε=0.01 tree", func(p *scenario.Params) { setLoss(p, 0.01) }},
	{"lossy ε=0.10 tree", func(p *scenario.Params) { setLoss(p, 0.10) }},
	{"burst ε=0.10 tree", func(p *scenario.Params) {
		setLoss(p, 0.10)
		p.FaultPlan = burstPlan(0.10)
	}},
	{"churn tree", churnRegime(topology.KindTree)},
	{"churn scale-free", churnRegime(topology.KindScaleFree)},
	{"churn small-world", churnRegime(topology.KindSmallWorld)},
}

// churnRegime is the churn of churnPlan at ε=0.05 on the given overlay.
func churnRegime(kind topology.Kind) func(p *scenario.Params) {
	return func(p *scenario.Params) {
		setLoss(p, 0.05)
		p.Overlay = kind
		p.FaultPlan = churnPlan(p)
	}
}

// The churn of x-adaptive and x-overlay: crashes over the first 60% of
// the run only, so repair settles before the measurement window closes.
const (
	churnRate     = 2.0 // crashes per second, systemwide
	churnDowntime = 300 * time.Millisecond
)

func churnPlan(p *scenario.Params) *faults.Plan {
	return faults.ChurnPlan(p.Seed, p.N, churnRate, p.Duration*3/5, churnDowntime)
}

// adaptiveVariants are x-adaptive's series: the five static algorithms,
// then the two adaptive variants.
var adaptiveVariants = []line{
	variant("push", core.Push, false),
	variant("subscriber pull", core.SubscriberPull, false),
	variant("publisher pull", core.PublisherPull, false),
	variant("combined pull", core.CombinedPull, false),
	variant("random pull", core.RandomPull, false),
	variant("adaptive (combined pull)", core.CombinedPull, true),
	variant("hybrid (push/pull)", core.Hybrid, true),
}

// variant is one x-adaptive series: an algorithm, with or without the
// adaptation controller.
func variant(name string, a core.Algorithm, adaptive bool) line {
	return line{name: name, edit: func(p *scenario.Params) {
		p.Algorithm = a
		if adaptive {
			p.Adapt = &adapt.Config{}
		}
	}}
}

// adaptiveNotes names the regimes and adds the headline: per regime,
// the best static delivery against each adaptive variant (positive
// delta = adaptive ahead), and each adaptive variant's switch counts.
func adaptiveNotes(g grid, cells [][]scenario.Result, figs []Figure) []Figure {
	delivery, overhead := &figs[0], &figs[1]
	adaptive := func(si int) bool { return cells[si][0].Params.Adapt != nil }
	for xi, x := range g.xs {
		delivery.Notes = append(delivery.Notes, fmt.Sprintf("regime %d: %s", xi+1, adaptiveRegimes[int(x)-1].name))
	}
	for xi, x := range g.xs {
		best, bestName := 0.0, ""
		for si, l := range g.series {
			if d := cells[si][xi].DeliveryRate; !adaptive(si) && d > best {
				best, bestName = d, l.name
			}
		}
		note := fmt.Sprintf("%s: best static %.4f (%s)", adaptiveRegimes[int(x)-1].name, best, bestName)
		for si, l := range g.series {
			if adaptive(si) {
				d := cells[si][xi].DeliveryRate
				note += fmt.Sprintf("; %s %.4f (%+.2f pp)", l.name, d, (d-best)*100)
			}
		}
		delivery.Notes = append(delivery.Notes, note)
	}
	for si, l := range g.series {
		if !adaptive(si) {
			continue
		}
		var sw, walks uint64
		for _, r := range cells[si] {
			sw += r.Adapt.ModeSwitches
			walks += r.Adapt.WalkSwitches
		}
		overhead.Notes = append(overhead.Notes,
			fmt.Sprintf("%s: %d mode switches, %d walk-degradation switches across all regimes", l.name, sw, walks))
	}
	return figs
}

// xOverlay is the overlay-diversity × repair-mode matrix: every
// recovery algorithm on the paper's degree-bounded tree, a
// Barabási–Albert scale-free overlay, and a Newman–Watts small-world
// overlay, under deterministic node churn healed either by the fault
// injector's omniscient oracle or by the decentralized
// self-stabilizing protocol (internal/repair).
var xOverlay = grid{
	setup: func(p *scenario.Params) { p.FaultPlan = churnPlan(p) },
	// x numbers the algorithms of core.Algorithms(); Quick keeps
	// no-recovery, push and combined pull.
	xs:      []float64{1, 2, 3, 4, 5, 6},
	quickXs: []float64{1, 3, 6},
	ordinal: true,
	at:      func(p *scenario.Params, x float64) { p.Algorithm = core.Algorithms()[int(x)-1] },
	series:  overlayLines(),
	xLabel:  "algorithm (1=no recovery, in paper legend order)",
	panels: []panel{{"x-overlay", "EXTENSION: delivery across overlay kinds and repair modes under churn",
		"delivery rate", delivery}},
	notes: []string{
		fmt.Sprintf("churn: %.1f crashes/s over the first 60%% of the run, mean downtime %v", churnRate, churnDowntime),
		"oracle: the injector reads global component structure and reconnects survivors directly",
		"self-stabilizing: dispatchers detect dead neighbors and re-link from local state only (internal/repair)",
		"non-tree overlays forward with first-arrival dedup; their redundancy rides out faults the tree must repair",
	},
	post: overlayRepairCost,
}

// overlayLines is one series per (overlay kind, repair mode).
func overlayLines() []line {
	var ls []line
	for _, kind := range topology.Kinds() {
		for _, mode := range []scenario.RepairMode{scenario.RepairOracle, scenario.RepairSelfStabilizing} {
			ls = append(ls, line{name: fmt.Sprintf("%v, %v", kind, mode), edit: func(p *scenario.Params) {
				p.Overlay = kind
				p.Repair = mode
			}})
		}
	}
	return ls
}

// overlayRepairCost derives the self-stabilizing repair-effort figure
// from the same runs.
func overlayRepairCost(g grid, cells [][]scenario.Result, figs []Figure) []Figure {
	cost := Figure{
		ID:     "x-overlay-repair",
		Title:  "EXTENSION: self-stabilizing repair effort by overlay kind",
		XLabel: g.xLabel,
		YLabel: "mean reattach latency (ms)",
		Notes: []string{
			"reattach latency: isolation time of a restarted dispatcher until the protocol re-links it",
			"links added counts protocol link mutations over the whole run (in series names' final column)",
		},
	}
	for _, row := range cells {
		if row[0].Params.Repair != scenario.RepairSelfStabilizing {
			continue
		}
		var s Series
		var linksAdded uint64
		for xi, r := range row {
			lat := 0.0
			if st := r.Repair; st.Reattaches > 0 {
				lat = float64(st.ReattachTotal) / float64(st.Reattaches) / float64(time.Millisecond)
			}
			s.Points = append(s.Points, Point{X: g.plotX(xi), Y: round2(lat)})
			linksAdded += r.Repair.LinksAdded
		}
		s.Name = fmt.Sprintf("%v (links added: %d)", row[0].Params.Overlay, linksAdded)
		cost.Series = append(cost.Series, s)
	}
	return append(figs, cost)
}
