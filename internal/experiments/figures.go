package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fig3 is one panel of paper Fig. 3: every algorithm once under
// setup, plotting the bucketed delivery-rate time series.
func fig3(id, title string, setup func(p *scenario.Params)) grid {
	return grid{
		duration:    12 * time.Second,
		setup:       setup,
		series:      paperLines,
		quickSeries: quickLines,
		xLabel:      "seconds",
		panels:      []panel{{id: id, title: title, yLabel: "delivery rate"}},
		curve:       timeSeries,
		post: noteParams(func(p scenario.Params) string {
			return fmt.Sprintf("N=%d, %.0f publish/s per dispatcher, %v simulated", p.N, p.PublishRate, p.Duration)
		}),
	}
}

// fig3a: delivery-rate time series under lossy links, ε = 0.05 and 0.1.
func fig3a(eps float64) grid {
	return fig3(fmt.Sprintf("3a-eps%.2f", eps), fmt.Sprintf("Event delivery, lossy links, ε=%.2f", eps),
		func(p *scenario.Params) { setLoss(p, eps) })
}

// fig3b: delivery-rate time series under topological reconfigurations,
// ρ = 0.2 s (non-overlapping) and ρ = 0.03 s (overlapping), reliable
// links.
func fig3b(rho sim.Time) grid {
	return fig3(fmt.Sprintf("3b-rho%.2f", seconds(rho)), fmt.Sprintf("Event delivery, reconfigurations every ρ=%v", rho),
		func(p *scenario.Params) {
			setLoss(p, 0)
			p.ReconfigInterval = rho
		})
}

// timeSeries is a run's bucketed delivery rate over its measurement
// window.
func timeSeries(r scenario.Result) []Point {
	var pts []Point
	for _, pt := range r.TimeSeries {
		if pt.Time >= r.Params.MeasureFrom && pt.Time < r.Params.MeasureTo {
			pts = append(pts, Point{X: seconds(pt.Time), Y: round2(pt.Rate)})
		}
	}
	return pts
}

// fig4a: delivery vs buffer size β.
var fig4a = grid{
	xs:          []float64{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000},
	quickXs:     []float64{500, 1500, 4000},
	at:          atBufferSize,
	series:      flatBaseline(paperLines),
	quickSeries: flatBaseline(quickLines),
	xLabel:      "β (buffer size)",
	panels:      []panel{{"4a", "Effect of buffer size β on delivery (ε=0.1)", "delivery rate", delivery}},
}

// fig4b: delivery vs gossip interval T.
var fig4b = grid{
	xs:          []float64{0.010, 0.015, 0.020, 0.025, 0.030, 0.035, 0.040, 0.045, 0.050, 0.055},
	quickXs:     []float64{0.010, 0.030, 0.055},
	at:          atGossipInterval,
	series:      flatBaseline(paperLines),
	quickSeries: flatBaseline(quickLines),
	xLabel:      "T (gossip interval, s)",
	panels:      []panel{{"4b", "Effect of gossip interval T on delivery (ε=0.1)", "delivery rate", delivery}},
}

// fig5: delivery vs gossip interval for several buffer sizes, combined
// pull, plus the no-recovery reference.
var fig5 = grid{
	xs:          fig4b.xs,
	quickXs:     fig4b.quickXs,
	at:          atGossipInterval,
	series:      fig5Lines(500, 1500, 2500, 3500),
	quickSeries: fig5Lines(500, 3500),
	xLabel:      "T (gossip interval, s)",
	panels:      []panel{{"5", "Delivery vs T for several β, combined pull (ε=0.1)", "delivery rate", delivery}},
}

func atBufferSize(p *scenario.Params, x float64) { p.Gossip.BufferSize = int(x) }

func atGossipInterval(p *scenario.Params, x float64) {
	p.Gossip.GossipInterval = sim.Time(x * float64(time.Second))
}

func fig5Lines(betas ...int) []line {
	ls := flatBaseline(algoLines(core.NoRecovery))
	for _, beta := range betas {
		ls = append(ls, line{name: fmt.Sprintf("β=%d", beta), edit: func(p *scenario.Params) {
			p.Algorithm = core.CombinedPull
			p.Gossip.BufferSize = beta
		}})
	}
	return ls
}

// bufferForPersistence returns the buffer size β giving roughly the
// given persistence at scale N (the paper scales β linearly with N so
// events persist ≈4 s, Sec. IV-D).
func bufferForPersistence(persistence sim.Time, n int, publishRate float64, patternsPerNode, numPatterns, maxMatch int) int {
	matchProb := 1 - math.Pow(1-float64(patternsPerNode)/float64(numPatterns), float64(maxMatch))
	fillRate := publishRate * (1 + matchProb*float64(n))
	return int(seconds(persistence) * fillRate)
}

// atScaledN sets the system size N and scales β with it for ≈4 s
// persistence.
func atScaledN(p *scenario.Params, x float64) {
	p.N = int(x)
	p.Gossip.BufferSize = bufferForPersistence(4*time.Second, p.N,
		p.PublishRate, p.PatternsPerNode, p.NumPatterns, p.MaxMatch)
}

func atPatternsPerNode(p *scenario.Params, x float64) { p.PatternsPerNode = int(x) }

// fig6: delivery as the system size increases, β scaled for ≈4 s
// persistence.
var fig6 = grid{
	xs:          []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200},
	quickXs:     []float64{20, 40},
	at:          atScaledN,
	series:      paperLines,
	quickSeries: quickLines,
	xLabel:      "N (number of dispatchers)",
	panels:      []panel{{"6", "Delivery as the system size increases (ε=0.1, β ∝ N)", "delivery rate", delivery}},
}

// fig7: receivers per event vs πmax. A routing property: no recovery,
// loss-free links, short runs.
var fig7 = grid{
	duration: 3 * time.Second,
	setup: func(p *scenario.Params) {
		setLoss(p, 0)
		p.PublishRate = 10
		p.MeasureFrom = 500 * time.Millisecond
		p.MeasureTo = p.Duration - 500*time.Millisecond
	},
	xs:      []float64{1, 2, 3, 5, 8, 10, 15, 20, 25, 30},
	quickXs: []float64{2, 10, 30},
	at:      atPatternsPerNode,
	series:  []line{{name: "receivers per event"}},
	xLabel:  "πmax (max subscriptions per dispatcher)",
	panels:  []panel{{"7", "Dispatchers receiving an event vs πmax", "receivers per event", receivers}},
	post: noteParams(func(p scenario.Params) string {
		return fmt.Sprintf("N=%d; an event matches at most %d patterns", p.N, p.MaxMatch)
	}),
}

// fig8: delivery vs πmax at one publish load, β=4000; the figure plots
// low (5/s) and high (50/s) load.
func fig8(rate float64) grid {
	// Low load needs the paper's full 25 s: with ≈0.2 events/s per
	// (source, pattern) stream, sequence-gap detection lags the
	// publish by seconds, and a short run cuts off the recovery of its
	// own tail.
	duration := 10 * time.Second
	if rate < 10 {
		duration = 25 * time.Second
	}
	return grid{
		duration: duration,
		setup: func(p *scenario.Params) {
			p.PublishRate = rate
			p.Gossip.BufferSize = 4000
		},
		xs:          []float64{1, 2, 4, 6, 10, 15, 22, 30},
		quickXs:     []float64{2, 10},
		at:          atPatternsPerNode,
		series:      algoLines(core.NoRecovery, core.SubscriberPull, core.Push, core.CombinedPull),
		quickSeries: algoLines(core.NoRecovery, core.Push),
		xLabel:      "πmax (max subscriptions per dispatcher)",
		panels: []panel{{fmt.Sprintf("8-load%.0f", rate),
			fmt.Sprintf("Delivery vs πmax at %.0f publish/s (β=4000, ε=0.1)", rate), "delivery rate", delivery}},
	}
}

// overheadLines is the push and combined-pull pair compared in the
// overhead figures.
var overheadLines = algoLines(core.Push, core.CombinedPull)

// fig9a: gossip messages per dispatcher, and gossip/event ratio, vs N.
var fig9a = grid{
	xs:      fig6.xs,
	quickXs: fig6.quickXs,
	at:      atScaledN,
	series:  overheadLines,
	xLabel:  "N (number of dispatchers)",
	panels: []panel{
		{"9a-abs", "Gossip messages per dispatcher vs N", "gossip msgs per dispatcher", gossipWhole},
		{"9a-ratio", "Gossip/event message ratio vs N", "gossip msgs / event msgs", gossipPerEvent},
	},
}

// fig9b: the two overhead metrics vs πmax (β=4000, high load).
var fig9b = grid{
	setup:   func(p *scenario.Params) { p.Gossip.BufferSize = 4000 },
	xs:      []float64{1, 2, 4, 6, 10, 15, 22, 30},
	quickXs: []float64{2, 10},
	at:      atPatternsPerNode,
	series:  overheadLines,
	xLabel:  "πmax",
	panels: []panel{
		{"9b-abs", "Gossip messages per dispatcher vs πmax", "gossip msgs per dispatcher", gossipWhole},
		{"9b-ratio", "Gossip/event message ratio vs πmax", "gossip msgs / event msgs", gossipPerEvent},
	},
}

// fig10: gossip messages per dispatcher vs ε at one publish load; the
// figure plots high and low load.
func fig10(rate float64) grid {
	return grid{
		setup:   func(p *scenario.Params) { p.PublishRate = rate },
		xs:      []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10},
		quickXs: []float64{0.01, 0.1},
		at:      setLoss,
		series:  overheadLines,
		xLabel:  "ε (link error rate)",
		panels: []panel{{fmt.Sprintf("10-load%.0f", rate),
			fmt.Sprintf("Gossip overhead vs ε at %.0f publish/s", rate), "gossip msgs per dispatcher", gossipWhole}},
	}
}
