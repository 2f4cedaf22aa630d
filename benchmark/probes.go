package main

import (
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The probes time one layer's public functions from outside, on inputs
// of the workload's size. They run in the traced run only and feed
// per-layer metrics only. A layer's share of a run is estimated as
// probe cost × that run's count — an estimate, because nothing inside
// the program is instrumented.

// probeOps is how many operations a per-operation probe averages over.
const probeOps = 1 << 20

// perOp times fn, which performs ops operations, and returns ns/op.
func perOp(tr *tracer, name string, parent int, ops int, fn func()) float64 {
	return tr.time(name, parent, func(int) { fn() }) * 1e9 / float64(ops)
}

type nopHandler struct{}

func (nopHandler) HandleMessage(ident.NodeID, wire.Message, bool) {}

// probeEvent is a routed event as the pull algorithms carry it: content,
// per-pattern sequence tags and a few hops of recorded route.
func probeEvent(seq uint32) *wire.Event {
	return &wire.Event{
		ID:          ident.EventID{Source: 7, Seq: seq},
		Content:     matching.Content{3, 17, 42},
		Tags:        []ident.PatternSeq{{Pattern: 3, Seq: seq}, {Pattern: 17, Seq: seq}, {Pattern: 42, Seq: seq}},
		Route:       []ident.NodeID{7, 12, 31, 5},
		PublishedAt: int64(seq) * 1000,
	}
}

// runSimProbes times every simulation layer at the size of p.
func runSimProbes(out *outcome, p scenario.Params, tr *tracer, root int) {
	parent := tr.begin("bench.probes", root)
	defer tr.end(parent)
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N

	// sim: a standing population of n self-rescheduling timers.
	{
		k := sim.New(p.Seed)
		rounds := max(1, probeOps/n)
		for i := 0; i < n; i++ {
			var tick func()
			tick = func() { k.After(time.Millisecond, tick) }
			k.After(time.Duration(i)*time.Microsecond, tick)
		}
		var events uint64
		ns := perOp(tr, "sim.Kernel.Run", parent, 1, func() { events = k.Run(time.Duration(rounds) * time.Millisecond) })
		out.set("sim.ns_per_event", ns/float64(events))
	}

	// topology: every overlay family at n.
	var topo *topology.Tree
	for _, kind := range topology.Kinds() {
		out.add("topology.build_s", tr.time("topology.NewOverlay "+kind.String(), parent, func(int) {
			t, err := topology.NewOverlay(kind, n, p.MaxDegree, rng)
			if err == nil && kind == p.Overlay {
				topo = t
			}
		}))
	}
	if topo == nil {
		return // NewOverlay rejects only sizes no workload uses
	}

	// matching / ident.
	u := matching.Universe{NumPatterns: p.NumPatterns, MaxMatch: p.MaxMatch}
	subs := make([][]ident.PatternID, n)
	out.set("matching.subs_draw_s", tr.time("matching.RandomSubscriptions", parent, func(int) {
		for i := range subs {
			subs[i] = u.RandomSubscriptions(p.PatternsPerNode, rng)
		}
	}))
	{
		// Half the members below the 128-bit inline tier, half above.
		var set ident.PatternSet
		members := make([]ident.PatternID, 64)
		for i := range members {
			members[i] = ident.PatternID(i * max(2, p.NumPatterns/64) % max(1, p.NumPatterns))
		}
		var sink int
		out.set("ident.patternset_ns_per_op", perOp(tr, "ident.PatternSet", parent, probeOps, func() {
			for op := 0; op < probeOps; op += 4 {
				m := members[op/4%len(members)]
				set.Add(m)
				if set.Has(m) {
					sink++
				}
				sink += int(set.At(op % set.Len()))
				set.Remove(m)
			}
		}))
		_ = sink
	}

	// network: one Send per directed link, then drain, repeated.
	{
		k := sim.New(p.Seed)
		nw := network.New(k, topo, p.Network, network.NopObserver{})
		for i := 0; i < n; i++ {
			nw.Register(ident.NodeID(i), nopHandler{})
		}
		links, ev := topo.Links(), probeEvent(1)
		rounds := max(1, probeOps/(2*len(links)))
		out.set("network.ns_per_send", perOp(tr, "network.Send", parent, rounds*2*len(links), func() {
			for r := 0; r < rounds; r++ {
				for _, l := range links {
					nw.Send(l.A, l.B, ev)
					nw.Send(l.B, l.A, ev)
				}
				k.Run(k.Now() + time.Second)
			}
		}))
	}

	// pubsub, then core on the same dispatchers.
	k := sim.New(p.Seed)
	nw := network.New(k, topo, p.Network, network.NopObserver{})
	nodes := make([]*pubsub.Node, n)
	for i := range nodes {
		id := ident.NodeID(i)
		nodes[i] = pubsub.NewNode(id, k, nw, topo.Neighbors(id), pubsub.Config{RecordRoutes: p.Algorithm.NeedsRoutes()})
	}
	out.set("pubsub.install_s", tr.time("pubsub.InstallStableSubscriptions", parent, func(int) {
		pubsub.InstallStableSubscriptions(topo, nodes, subs)
	}))

	// cache: FIFO at β in steady eviction; then n of them.
	{
		beta := p.Gossip.BufferSize
		c := cache.New(beta, cache.FIFOPolicy, nil)
		evs := make([]*wire.Event, beta+probeOps)
		for i := range evs {
			evs[i] = probeEvent(uint32(i + 1))
		}
		for _, ev := range evs[:beta] {
			c.Put(ev)
		}
		out.set("cache.ns_per_put", perOp(tr, "cache.Put", parent, probeOps, func() {
			for _, ev := range evs[beta:] {
				c.Put(ev)
			}
		}))
		out.set("cache.new_s", tr.time("cache.New", parent, func(int) {
			for i := 0; i < n; i++ {
				cache.New(beta, cache.FIFOPolicy, nil)
			}
		}))
	}

	if p.Algorithm != core.NoRecovery {
		gossip := p.Gossip
		gossip.Algorithm = p.Algorithm
		if p.Algorithm == core.Hybrid && gossip.Adapt == nil {
			gossip.Adapt = &adapt.Config{}
		}
		engines := make([]*core.Engine, 0, n)
		out.set("core.new_engine_s", tr.time("core.NewEngine", parent, func(int) {
			for _, node := range nodes {
				if e, err := core.NewEngine(node, gossip); err == nil {
					engines = append(engines, e)
				}
			}
		}))
		if len(engines) > 0 {
			rounds := max(1, probeOps/8/len(engines))
			out.set("core.ns_per_round_idle", perOp(tr, "core.Engine.RunRound", parent, rounds*len(engines), func() {
				for r := 0; r < rounds; r++ {
					for _, e := range engines {
						e.RunRound()
					}
				}
			}))
		}
	}
	{
		const standing = 512
		lost := core.NewLostBuffer(p.Gossip.LostCapacity, p.Gossip.LostTTL)
		entry := func(i int) wire.LostEntry {
			return wire.LostEntry{Source: ident.NodeID(i % 16), Pattern: ident.PatternID(i % 8), Seq: uint32(i)}
		}
		for i := 0; i < standing; i++ {
			lost.Add(entry(i), 0)
		}
		var sink int
		out.set("core.lost_ns_per_op", perOp(tr, "core.LostBuffer", parent, probeOps, func() {
			for op := 0; op < probeOps; op += 3 {
				e := entry(standing + op)
				lost.Add(e, 0)
				sink += len(lost.ForPattern(e.Pattern, 0))
				lost.Remove(e)
			}
		}))
		_ = sink
	}

	// metrics: one generated publish/deliver stream through each tracker.
	{
		const audience = 8
		evs := make([]*wire.Event, probeOps/(audience+1))
		for i := range evs {
			evs[i] = probeEvent(uint32(i + 1))
		}
		var now sim.Time
		clock := func() sim.Time { return now }
		replay := func(t metrics.Tracker) func() {
			return func() {
				for i, ev := range evs {
					now = sim.Time(i) * time.Millisecond
					t.OnPublish(ev.ID, audience, now)
					for r := 0; r < audience; r++ {
						t.OnDeliver(ident.NodeID(r), ev, r == audience-1)
					}
				}
			}
		}
		ops := len(evs) * (audience + 1)
		out.set("metrics.ns_per_op_exact", perOp(tr, "metrics.DeliveryTracker", parent, ops,
			replay(metrics.NewDeliveryTracker(clock))))
		out.set("metrics.ns_per_op_streaming", perOp(tr, "metrics.StreamingTracker", parent, ops,
			replay(metrics.NewStreamingTracker(metrics.StreamingConfig{Now: clock, Seed: p.Seed, BucketWidth: p.BucketWidth}))))
	}

	// adapt: the controller's per-round observation.
	if p.Gossip.Adapt != nil || p.Adapt != nil || p.Algorithm == core.Hybrid {
		cfg := adapt.Config{}.Normalized(p.Gossip.GossipInterval)
		c := adapt.New(cfg, adapt.Knobs{PForward: p.Gossip.PForward, PSource: p.Gossip.PSource, Fanout: 1, Interval: p.Gossip.GossipInterval}, p.Algorithm == core.Hybrid)
		out.set("adapt.observe_ns", perOp(tr, "adapt.Controller.Observe", parent, probeOps, func() {
			for op := 0; op < probeOps; op++ {
				c.Observe(sim.Time(op)*p.Gossip.GossipInterval, adapt.Signals{
					Elapsed: p.Gossip.GossipInterval, Delivered: 40, Lost: uint64(op % 3), Recovered: uint64(op % 2), Outstanding: op % 5,
				})
			}
		}))
	}
}

// runWireProbes times the codec on the two messages the live path
// carries most: a routed event and a pull digest.
func runWireProbes(out *outcome, tr *tracer, root int) {
	parent := tr.begin("bench.probes", root)
	defer tr.end(parent)
	digest := &wire.GossipSubPull{Gossiper: 9, Pattern: 17}
	for i := 0; i < 8; i++ {
		digest.Wanted = append(digest.Wanted, wire.LostEntry{Source: 7, Pattern: 17, Seq: uint32(100 + i)})
	}
	msgs := []wire.Message{probeEvent(1), digest}
	var encoded [][]byte
	var bytes int
	for _, m := range msgs {
		b := wire.Encode(m)
		encoded = append(encoded, b)
		bytes += len(b)
	}
	out.set("wire.bytes_per_msg", float64(bytes)/float64(len(msgs)))
	buf := make([]byte, 0, 256)
	out.set("wire.encode_ns_per_msg", perOp(tr, "wire.Message.Append", parent, probeOps, func() {
		for op := 0; op < probeOps; op++ {
			buf = msgs[op%len(msgs)].Append(buf[:0])
		}
	}))
	var failed int
	out.set("wire.decode_ns_per_msg", perOp(tr, "wire.Decode", parent, probeOps, func() {
		for op := 0; op < probeOps; op++ {
			if _, err := wire.Decode(encoded[op%len(encoded)]); err != nil {
				failed++
			}
		}
	}))
	if failed > 0 {
		out.violate("wire.Decode rejected %d of its own encodings", failed)
	}
}
