package experiments

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// This file contains experiments beyond the paper: sensitivity sweeps
// for the constants the paper leaves unspecified (PForward, PSource),
// the buffer replacement policies after the paper's [13] discussion,
// the pure-gossip comparison, seed variance and recovery latency. They
// are registered in the generators map in experiments.go under "x-"
// identifiers.

// xPForward sweeps the forwarding probability: the paper names the
// parameter but never gives its value; this sweep documents why 0.9 is
// the calibrated default (delivery saturates while overhead keeps
// climbing).
func xPForward(opt Options) ([]Figure, error) {
	xs := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if opt.Quick {
		xs = []float64{0.5, 1.0}
	}
	p0 := base(opt, 10*time.Second)
	s := sweep{
		xs:         xs,
		algorithms: []core.Algorithm{core.Push, core.CombinedPull},
		configure:  func(p *scenario.Params, x float64) { p.Gossip.PForward = x },
		measures: []func(scenario.Result) float64{
			func(r scenario.Result) float64 { return round2(r.DeliveryRate) },
			func(r scenario.Result) float64 { return round2(r.GossipPerDispatcher) },
		},
	}
	both, err := s.run(p0)
	if err != nil {
		return nil, err
	}
	return []Figure{
		{
			ID: "x-pforward-delivery", Title: "Delivery vs Pforward (ε=0.1)",
			XLabel: "Pforward", YLabel: "delivery rate", Series: both[0],
		},
		{
			ID: "x-pforward-overhead", Title: "Gossip overhead vs Pforward (ε=0.1)",
			XLabel: "Pforward", YLabel: "gossip msgs per dispatcher", Series: both[1],
		},
	}, nil
}

// xPSource sweeps the publisher-side probability of combined pull from
// pure subscriber-based (0) to pure publisher-based (1).
func xPSource(opt Options) ([]Figure, error) {
	xs := []float64{0, 0.25, 0.5, 0.75, 1}
	if opt.Quick {
		xs = []float64{0, 1}
	}
	p0 := base(opt, 10*time.Second)
	s := sweep{
		xs:         xs,
		algorithms: []core.Algorithm{core.CombinedPull},
		configure:  func(p *scenario.Params, x float64) { p.Gossip.PSource = x },
		measures: []func(scenario.Result) float64{
			func(r scenario.Result) float64 { return round2(r.DeliveryRate) },
		},
	}
	series, err := s.runOne(p0)
	if err != nil {
		return nil, err
	}
	series[0].Name = "combined-pull"
	return []Figure{{
		ID:     "x-psource",
		Title:  "Combined pull delivery vs Psource (ε=0.1)",
		XLabel: "Psource (probability of a publisher-based round)",
		YLabel: "delivery rate",
		Series: series,
		Notes:  []string{"0 = always subscriber-based, 1 = always publisher-based; the mix wins"},
	}}, nil
}

// xBufferPolicy compares FIFO (the paper), random replacement, and LRU
// under scarce buffers, where the policy matters most.
func xBufferPolicy(opt Options) ([]Figure, error) {
	xs := []float64{250, 500, 1000, 1500}
	if opt.Quick {
		xs = []float64{250, 1000}
	}
	p0 := base(opt, 10*time.Second)
	policies := []struct {
		name   string
		policy cache.Policy
	}{
		{"fifo (paper)", cache.FIFOPolicy},
		{"random", cache.RandomPolicy},
		{"lru", cache.LRUPolicy},
	}
	fig := Figure{
		ID:     "x-bufferpolicy",
		Title:  "Buffer replacement policy vs delivery, combined pull (ε=0.1)",
		XLabel: "β (buffer size)",
		YLabel: "delivery rate",
	}
	for _, pol := range policies {
		pol := pol
		s := sweep{
			xs:         xs,
			algorithms: []core.Algorithm{core.CombinedPull},
			configure: func(p *scenario.Params, x float64) {
				p.Gossip.BufferSize = int(x)
				p.Gossip.BufferPolicy = pol.policy
			},
			measures: []func(scenario.Result) float64{
				func(r scenario.Result) float64 { return round2(r.DeliveryRate) },
			},
		}
		series, err := s.runOne(p0)
		if err != nil {
			return nil, err
		}
		series[0].Name = pol.name
		fig.Series = append(fig.Series, series[0])
	}
	return []Figure{fig}, nil
}

// xPureGossip reproduces the paper's Sec. V comparison against
// hpcast-style pure gossip dissemination (ref. [10]): gossip as the
// only routing mechanism versus the paper's tree routing plus epidemic
// recovery. Metrics: delivery rate and total event-message cost per
// useful delivery.
func xPureGossip(opt Options) ([]Figure, error) {
	fanouts := []int{2, 3, 4, 5}
	if opt.Quick {
		fanouts = []int{2, 4}
	}
	p0 := base(opt, 10*time.Second)

	// Tree-based reference: combined pull at the same load.
	ref := p0
	ref.Algorithm = core.CombinedPull
	refRes, err := scenario.Run(ref)
	if err != nil {
		return nil, err
	}
	refDelivery := round2(refRes.DeliveryRate)
	gossipTotal := refRes.GossipPerDispatcher * float64(ref.N)
	eventTotal := 0.0
	if refRes.GossipEventRatio > 0 {
		eventTotal = gossipTotal / refRes.GossipEventRatio
	}
	refCost := round2((gossipTotal + eventTotal) / float64(refRes.Deliveries))

	fp := flood.DefaultParams()
	fp.Seed = opt.Seed
	fp.N = p0.N
	fp.NumPatterns = p0.NumPatterns
	fp.MaxMatch = p0.MaxMatch
	fp.PatternsPerNode = p0.PatternsPerNode
	fp.PublishRate = p0.PublishRate
	fp.LossRate = p0.Network.LossRate
	fp.Duration = p0.Duration

	delivery := Figure{
		ID:     "x-puregossip-delivery",
		Title:  "Pure gossip dissemination (hpcast-style) vs tree + combined pull: delivery",
		XLabel: "gossip fanout",
		YLabel: "delivery rate",
		Notes:  []string{"paper Sec. V: pure gossip guarantees nothing even without faults"},
	}
	cost := Figure{
		ID:     "x-puregossip-cost",
		Title:  "Pure gossip vs tree + combined pull: messages per useful delivery",
		XLabel: "gossip fanout",
		YLabel: "transmissions per delivered event",
		Notes:  []string{"pure gossip pushes full events to random (often uninterested) nodes"},
	}
	var pg, pc, rd, rc Series
	pg.Name, pc.Name = "pure gossip", "pure gossip"
	rd.Name, rc.Name = "tree + combined pull", "tree + combined pull"
	for _, fanout := range fanouts {
		f := fp
		f.Fanout = fanout
		res, err := flood.Run(f)
		if err != nil {
			return nil, err
		}
		x := float64(fanout)
		pg.Points = append(pg.Points, Point{X: x, Y: round2(res.DeliveryRate)})
		pc.Points = append(pc.Points, Point{X: x, Y: round2(res.MessagesPerDelivery)})
		rd.Points = append(rd.Points, Point{X: x, Y: refDelivery})
		rc.Points = append(rc.Points, Point{X: x, Y: refCost})
	}
	delivery.Series = []Series{rd, pg}
	cost.Series = []Series{rc, pc}
	return []Figure{delivery, cost}, nil
}

// xVariance reproduces the paper's "Effect of randomization" claim
// (Sec. IV-A): across 10 seeds the delivery rate varies by only
// 1–2 %, so single runs are representative.
func xVariance(opt Options) ([]Figure, error) {
	seeds := 10
	algos := []core.Algorithm{core.NoRecovery, core.Push, core.CombinedPull}
	if opt.Quick {
		seeds = 3
		algos = algos[:2]
	}
	p0 := base(opt, 10*time.Second)
	fig := Figure{
		ID:     "x-variance",
		Title:  fmt.Sprintf("Delivery-rate spread across %d seeds (ε=0.1)", seeds),
		XLabel: "metric (1=mean, 2=min, 3=max, 4=rel. spread %)",
		YLabel: "delivery rate / percent",
		Notes: []string{
			"paper Sec. IV-A: variations across seeds are limited, around 1%–2%",
		},
	}
	for _, a := range algos {
		p := p0
		p.Algorithm = a
		stats, err := scenario.RunSeeds(p, seeds)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{
			Name: a.String(),
			Points: []Point{
				{X: 1, Y: round2(stats.Mean)},
				{X: 2, Y: round2(stats.Min)},
				{X: 3, Y: round2(stats.Max)},
				{X: 4, Y: round2(stats.RelSpread() * 100)},
			},
		})
	}
	return []Figure{fig}, nil
}

// xLatency quantifies the recovery latency the paper only discusses
// qualitatively (Sec. IV-C: "the push approach has a bigger recovery
// latency than pull"): publish→delivery percentiles of recovered
// events per algorithm.
func xLatency(opt Options) ([]Figure, error) {
	algos := []core.Algorithm{core.Push, core.SubscriberPull, core.PublisherPull, core.CombinedPull, core.RandomPull}
	if opt.Quick {
		algos = []core.Algorithm{core.Push, core.CombinedPull}
	}
	p0 := base(opt, 10*time.Second)
	var params []scenario.Params
	for _, a := range algos {
		p := p0
		p.Algorithm = a
		params = append(params, p)
	}
	results, err := scenario.RunAll(params)
	if err != nil {
		return nil, err
	}
	fig := Figure{
		ID:     "x-latency",
		Title:  "Recovery latency percentiles per algorithm (ε=0.1)",
		XLabel: "percentile",
		YLabel: "publish→recovered delivery latency (ms)",
		Notes:  []string{"quantifies the paper's qualitative claim that push recovers slower than pull"},
	}
	ms := func(t sim.Time) float64 { return round2(float64(t) / float64(time.Millisecond)) }
	for i, r := range results {
		fig.Series = append(fig.Series, Series{
			Name: algos[i].String(),
			Points: []Point{
				{X: 50, Y: ms(r.RecoveryLatencyP50)},
				{X: 99, Y: ms(r.RecoveryLatencyP99)},
			},
		})
	}
	return []Figure{fig}, nil
}
