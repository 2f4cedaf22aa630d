// Package flood implements a pure-gossip dissemination baseline in the
// spirit of hpcast (paper ref. [10], Eugster & Guerraoui, "Probabilistic
// multicast"): gossip is not a recovery add-on but the only routing
// mechanism — every event is pushed, in full, to random peers for a
// number of rounds, and interested nodes keep whatever matches their
// subscriptions.
//
// The paper's Sec. V criticizes this design: events reach
// non-interested nodes, arrive more than once, carry their whole
// content in every gossip message, and delivery is not guaranteed even
// without faults. This package exists to reproduce that comparison
// quantitatively (experiment "x-puregossip"): delivery and
// message cost of pure gossip versus the paper's tree routing plus
// epidemic recovery.
package flood

import (
	"fmt"
	"time"

	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/sim"
)

// Params configures one pure-gossip dissemination run.
type Params struct {
	// Seed drives all randomness.
	Seed int64
	// N is the number of nodes; all nodes know all other nodes
	// (hpcast organizes membership hierarchically; a flat membership
	// is the most favorable case for pure gossip).
	N int
	// NumPatterns, MaxMatch, PatternsPerNode define the content model,
	// as in the main simulator.
	NumPatterns, MaxMatch, PatternsPerNode int
	// PublishRate is events/second per node.
	PublishRate float64
	// Fanout is how many random peers a node pushes an event to when
	// it first receives it.
	Fanout int
	// Rounds bounds how many hops an event travels (its TTL).
	Rounds int
	// LossRate is the per-transmission Bernoulli loss probability.
	LossRate float64
	// HopDelay is the per-transmission latency.
	HopDelay sim.Time
	// Duration is the simulated time span; measurement uses
	// [1s, Duration-2s] like the main simulator.
	Duration sim.Time
}

// DefaultParams mirrors the main simulator's defaults where they
// apply. Fanout/Rounds default to log-ish values that give pure gossip
// a fair chance (delivery probability comparable to the tree system).
func DefaultParams() Params {
	return Params{
		Seed:            1,
		N:               100,
		NumPatterns:     70,
		MaxMatch:        3,
		PatternsPerNode: 2,
		PublishRate:     50,
		Fanout:          3,
		Rounds:          5,
		LossRate:        0.1,
		HopDelay:        500 * time.Microsecond,
		Duration:        10 * time.Second,
	}
}

// Result summarizes one run.
type Result struct {
	// DeliveryRate is delivered/expected over the measurement window
	// (matching subscribers only, publisher excluded).
	DeliveryRate float64
	// EventMessages counts every event transmission (each carries the
	// full event, as the paper notes for hpcast).
	EventMessages uint64
	// MessagesPerDelivery is EventMessages divided by the number of
	// useful deliveries — the waste metric.
	MessagesPerDelivery float64
	// DuplicateReceptions counts events received by a node that
	// already had them.
	DuplicateReceptions uint64
	// UninterestedReceptions counts first receptions at nodes whose
	// subscriptions do not match — traffic the tree-based system never
	// generates.
	UninterestedReceptions uint64
	// EventsPublished counts publish operations.
	EventsPublished uint64
}

// event is the in-flight representation.
type event struct {
	id      ident.EventID
	content matching.Content
	ttl     int
}

// Run executes one pure-gossip dissemination simulation.
func Run(p Params) (Result, error) {
	if p.N < 2 || p.Fanout < 1 || p.Rounds < 1 {
		return Result{}, fmt.Errorf("flood: invalid parameters N=%d fanout=%d rounds=%d", p.N, p.Fanout, p.Rounds)
	}
	if p.Duration <= 0 {
		return Result{}, fmt.Errorf("flood: non-positive duration %v", p.Duration)
	}
	k := sim.New(p.Seed)
	rng := k.NewStream(0x666c6f6f) // "floo"
	u := matching.Universe{NumPatterns: p.NumPatterns, MaxMatch: p.MaxMatch}

	interests := make([]*matching.Interest, p.N)
	subRNG := k.NewStream(0x73756273)
	for i := range interests {
		interests[i] = matching.NewInterest(u.RandomSubscriptions(p.PatternsPerNode, subRNG))
	}
	subscribersOf := make(map[ident.PatternID][]ident.NodeID, p.NumPatterns)
	for i, in := range interests {
		for _, pat := range in.Patterns() {
			subscribersOf[pat] = append(subscribersOf[pat], ident.NodeID(i))
		}
	}

	seen := make([]ident.SeqSet, p.N)

	measureFrom := sim.Time(time.Second)
	measureTo := p.Duration - 2*time.Second
	if measureTo <= measureFrom {
		measureFrom, measureTo = 0, p.Duration
	}

	var res Result
	type track struct {
		expected, delivered uint32
	}
	tracked := make(map[ident.EventID]*track, 4096)

	// counted/countStamp deduplicate subscribers per publish without a
	// per-call map: a node is counted when its stamp equals the current
	// publish's stamp (single-threaded kernel, shared across closures).
	counted := make([]uint32, p.N)
	countStamp := uint32(0)

	// gossipTo pushes ev to fanout random peers (excluding self).
	var gossipTo func(from ident.NodeID, ev event)
	receive := func(node ident.NodeID, ev event) {
		if !seen[node].Add(ev.id) {
			res.DuplicateReceptions++
			return
		}
		if interests[node].Matches(ev.content) {
			if tr, ok := tracked[ev.id]; ok && node != ev.id.Source {
				tr.delivered++
			}
		} else {
			res.UninterestedReceptions++
		}
		// hpcast-style: every receiver keeps gossiping the full event
		// while its TTL lasts, interested or not.
		if ev.ttl > 1 {
			gossipTo(node, event{id: ev.id, content: ev.content, ttl: ev.ttl - 1})
		}
	}
	gossipTo = func(from ident.NodeID, ev event) {
		for i := 0; i < p.Fanout; i++ {
			to := ident.NodeID(rng.Intn(p.N))
			if to == from {
				continue
			}
			res.EventMessages++
			if p.LossRate > 0 && rng.Float64() < p.LossRate {
				continue
			}
			target := to
			k.After(p.HopDelay, func() { receive(target, ev) })
		}
	}

	// Workload: Poisson publishing per node, as in the main simulator.
	seqs := make([]uint32, p.N)
	meanGap := float64(time.Second) / p.PublishRate
	for i := 0; i < p.N; i++ {
		node := ident.NodeID(i)
		wlRNG := k.NewStream(0x776f726b + int64(i))
		var publish func()
		schedule := func() {
			k.After(sim.Time(wlRNG.ExpFloat64()*meanGap), publish)
		}
		publish = func() {
			seqs[node]++
			ev := event{
				id:      ident.EventID{Source: node, Seq: seqs[node]},
				content: u.RandomContent(wlRNG),
				ttl:     p.Rounds,
			}
			res.EventsPublished++
			now := k.Now()
			if now >= measureFrom && now < measureTo {
				exp := uint32(0)
				countStamp++
				for _, pat := range ev.content {
					for _, s := range subscribersOf[pat] {
						if s != node && counted[s] != countStamp {
							counted[s] = countStamp
							exp++
						}
					}
				}
				tracked[ev.id] = &track{expected: exp}
			}
			seen[node].Add(ev.id)
			gossipTo(node, ev)
			schedule()
		}
		schedule()
	}

	k.Run(p.Duration)

	var exp, del uint64
	for _, tr := range tracked {
		exp += uint64(tr.expected)
		del += uint64(tr.delivered)
	}
	if exp > 0 {
		res.DeliveryRate = float64(del) / float64(exp)
	} else {
		res.DeliveryRate = 1
	}
	if del > 0 {
		res.MessagesPerDelivery = float64(res.EventMessages) / float64(del)
	}
	return res, nil
}
