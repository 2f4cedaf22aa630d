// Market data: a domain-flavored reading of the paper's model. A
// brokerage distributes ticker updates over a content-based
// publish-subscribe overlay; traders subscribe to the symbols they
// follow (subscriptions = symbols = the paper's patterns) and every
// update matches the handful of symbols it concerns. Dropped updates
// mean stale books, so the operator wants to know how much reliability
// epidemic recovery buys at which bandwidth price — including when the
// closed-loop controller adapts the gossip interval, forwarding
// probability and fanout to the observed losses (the paper's Sec. IV-E
// suggests adapting the interval).
//
//	go run ./examples/marketdata
package main

import (
	"fmt"
	"log"
	"time"

	epidemic "repro"
)

func main() {
	log.SetFlags(0)

	// 60 brokers, a universe of 70 symbols, each broker follows 3.
	base := epidemic.DefaultParams()
	base.N = 60
	base.NumPatterns = 70
	base.PatternsPerNode = 3
	base.PublishRate = 30
	base.Duration = 8 * time.Second
	base.Network.LossRate = 0.05 // a mildly lossy WAN
	base.Network.OOBLossRate = 0.05

	type variant struct {
		name string
		mut  func(*epidemic.Params)
	}
	variants := []variant{
		{"no recovery", func(p *epidemic.Params) { p.Algorithm = epidemic.NoRecovery }},
		{"combined pull", func(p *epidemic.Params) { p.Algorithm = epidemic.CombinedPull }},
		{"combined pull + adaptive", func(p *epidemic.Params) {
			p.Algorithm = epidemic.CombinedPull
			p.Adapt = &epidemic.AdaptConfig{}
		}},
		{"push", func(p *epidemic.Params) { p.Algorithm = epidemic.Push }},
	}

	fmt.Println("ticker distribution, 60 brokers, 5% per-hop loss")
	fmt.Println()
	fmt.Printf("%-28s %10s %12s %14s\n", "configuration", "delivery", "recovered", "gossip msgs")
	for _, v := range variants {
		p := base
		v.mut(&p)
		res, err := epidemic.Run(p)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		fmt.Printf("%-28s %9.2f%% %11.1f%% %14.0f\n",
			v.name, res.DeliveryRate*100, res.RecoveredShare*100,
			res.GossipPerDispatcher)
	}

	fmt.Println()
	fmt.Println("Pull-based recovery only spends bandwidth when updates were")
	fmt.Println("actually lost. At 5% per-hop loss the adaptive controller reads")
	fmt.Println("the losses as a reason to gossip harder: it shortens the interval")
	fmt.Println("and widens the fanout, spending more gossip for a little more")
	fmt.Println("delivery (paper Sec. IV-E).")
}
