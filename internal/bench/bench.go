// Package bench holds the hot-path micro-benchmarks behind cmd/bench.
//
// The benchmarks live in a regular (non-test) package so that the
// cmd/bench harness can execute them with testing.Benchmark and record
// ns/op, allocs/op, and simulated-events/sec into BENCH_hotpath.json —
// the measured trajectory that every PR extends. The same functions are
// exposed as ordinary `go test -bench` benchmarks by the wrappers in
// the repository root's bench_test.go.
package bench

import (
	"testing"
	"time"

	"repro/internal/check"
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

// KernelScheduleDispatch measures the kernel's per-event cost on the
// schedule/dispatch path: every executed handler reschedules itself,
// so each benchmark op is exactly one heap push, one heap pop, and one
// handler dispatch over a standing population of timers.
func KernelScheduleDispatch(b *testing.B) {
	const population = 256
	k := sim.New(1)
	rng := k.NewStream(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		k.After(sim.Time(rng.Intn(1000))*time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < population; i++ {
		k.At(sim.Time(i)*time.Microsecond, tick)
	}
	k.RunAll()
}

// KernelScheduleCancel measures the schedule-then-cancel path: each op
// schedules one timer and cancels it before it fires, the lifecycle of
// every retransmission timeout that is satisfied in time.
func KernelScheduleCancel(b *testing.B) {
	k := sim.New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := k.After(time.Millisecond, fn)
		c.Cancel()
		if i%1024 == 1023 {
			// Drain the cancelled backlog the way a real run would:
			// virtual time advances past the dead entries.
			k.Run(k.Now() + 2*time.Millisecond)
		}
	}
	k.RunAll()
}

// NetworkSend measures Network.Send with FIFO queueing enabled: the
// per-transmission link-state lookup plus the delivery event. Sends
// cycle over every directed link of a default-shaped tree.
func NetworkSend(b *testing.B) {
	k := sim.New(1)
	topo, err := topology.New(100, 4, k.NewStream(2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.LossRate = 0 // measure the send path, not the loss path
	nw := network.New(k, topo, cfg, nil)
	for i := 0; i < topo.N(); i++ {
		nw.Register(ident.NodeID(i), nopHandler{})
	}
	links := topo.Links()
	msg := &wire.Event{
		ID:      ident.EventID{Source: 0, Seq: 1},
		Content: matching.Content{0},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		if i%2 == 0 {
			nw.Send(l.A, l.B, msg)
		} else {
			nw.Send(l.B, l.A, msg)
		}
		if i%256 == 255 {
			k.RunAll() // drain deliveries so the FES stays small
		}
	}
	k.RunAll()
}

type nopHandler struct{}

func (nopHandler) HandleMessage(ident.NodeID, wire.Message, bool) {}

// MetricsTracker measures the DeliveryTracker pipeline: one publish
// plus eight deliveries per op, and a TimeSeries aggregation at the
// end, amortized over all ops.
func MetricsTracker(b *testing.B) {
	tr := metrics.NewDeliveryTracker(nil)
	ev := &wire.Event{ID: ident.EventID{Source: 0, Seq: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ID.Seq = uint32(i)
		at := sim.Time(i) * time.Microsecond
		tr.OnPublish(ev.ID, 8, at)
		for d := 0; d < 8; d++ {
			tr.OnDeliver(ident.NodeID(d+1), ev, d%4 == 0)
		}
	}
	pts := tr.TimeSeries(100 * time.Millisecond)
	b.StopTimer()
	if len(pts) == 0 && b.N > 0 {
		b.Fatal("empty time series")
	}
}

// GossipRound measures one quiescent combined-pull gossip round: the
// per-round fixed cost every engine pays every interval T regardless of
// load. With nothing outstanding in the Lost buffer, a round scans the
// local subscription list and the digest indexes and skips; since PR 2
// this path performs zero heap allocations, so the benchmark doubles as
// the steady-state allocation regression check recorded in the
// trajectory file.
func GossipRound(b *testing.B) {
	const n = 25
	k := sim.New(1)
	topo, err := topology.New(n, 4, k.NewStream(2))
	if err != nil {
		b.Fatal(err)
	}
	ncfg := network.DefaultConfig()
	ncfg.LossRate = 0
	ncfg.OOBLossRate = 0
	nw := network.New(k, topo, ncfg, nil)
	pcfg := pubsub.Config{
		RecordRoutes: true,
		OnDeliver:    func(ident.NodeID, *wire.Event, bool) {},
	}
	nodes := make([]*pubsub.Node, n)
	for i := range nodes {
		id := ident.NodeID(i)
		nodes[i] = pubsub.NewNode(id, k, nw, topo.Neighbors(id), pcfg)
	}
	u := matching.Universe{NumPatterns: 100, MaxMatch: 5}
	subRNG := k.NewStream(3)
	subs := make([][]ident.PatternID, n)
	for i := range subs {
		subs[i] = u.RandomSubscriptions(10, subRNG)
	}
	pubsub.InstallStableSubscriptions(topo, nodes, subs)
	engines := make([]*core.Engine, n)
	for i, node := range nodes {
		e, err := core.NewEngine(node, core.DefaultConfig(core.CombinedPull))
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engines[i%n].RunRound()
	}
}

// DigestBuild measures steady-state digest reads: every view the pull
// gossipers consult each round (full, per-pattern, per-source, and the
// distinct pattern/source lists) plus a push digest from a cached
// EventIDSet, against a populated but unchanging Lost buffer. All views
// are served from incremental indexes and cached snapshots, so the
// steady state allocates nothing.
func DigestBuild(b *testing.B) {
	const patterns, sources, perPair = 8, 8, 4
	lb := core.NewLostBuffer(4096, 10*time.Second)
	now := sim.Time(time.Millisecond)
	for s := 0; s < sources; s++ {
		for p := 0; p < patterns; p++ {
			for q := 1; q <= perPair; q++ {
				lb.Add(wire.LostEntry{
					Source:  ident.NodeID(s),
					Pattern: ident.PatternID(p),
					Seq:     uint32(q),
				}, now)
			}
		}
	}
	set := ident.NewEventIDSet(128)
	for i := 0; i < 128; i++ {
		set.Add(ident.EventID{Source: ident.NodeID(i % 8), Seq: uint32(i)})
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(lb.All(now))
		sink += len(lb.Patterns(now))
		sink += len(lb.Sources(now))
		sink += len(lb.ForPattern(ident.PatternID(i%patterns), now))
		sink += len(lb.ForSource(ident.NodeID(i%sources), now))
		sink += len(set.Sorted())
	}
	b.StopTimer()
	if sink == 0 && b.N > 0 {
		b.Fatal("empty digests")
	}
}

// LostBuffer measures the mutation path of the Lost buffer: one
// detection (sorted insert into its pattern row), one digest read of the
// mutated pattern (snapshot rebuild), and one recovery removal per op,
// over a standing population of entries.
func LostBuffer(b *testing.B) {
	const standing = 512
	lb := core.NewLostBuffer(4096, 10*time.Second)
	now := sim.Time(time.Millisecond)
	entry := func(i int) wire.LostEntry {
		return wire.LostEntry{
			Source:  ident.NodeID(i % 16),
			Pattern: ident.PatternID(i % 32),
			Seq:     uint32(i),
		}
	}
	for i := 0; i < standing; i++ {
		lb.Add(entry(i), now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entry(standing + i)
		lb.Add(e, now)
		if len(lb.ForPattern(e.Pattern, now)) == 0 {
			b.Fatal("entry not indexed")
		}
		lb.Remove(entry(i))
	}
}

// EndToEnd measures a full small combined-pull simulation — the
// package's end-to-end hot path — and reports simulated kernel
// events per wall-clock second. Runs go through one scenario.Runner,
// exactly like a sweep worker, so the number reflects the steady-state
// per-simulation cost with run state (kernel slab, engine scratch)
// reused across runs rather than the one-off cold-start cost.
func EndToEnd(b *testing.B) {
	var events uint64
	var runner scenario.Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := scenario.DefaultParams()
		p.Seed = int64(i + 1)
		p.N = 25
		p.Duration = 2 * time.Second
		p.MeasureFrom = 300 * time.Millisecond
		p.MeasureTo = 1500 * time.Millisecond
		p.PublishRate = 15
		p.Algorithm = core.CombinedPull
		p.Gossip = core.DefaultConfig(core.CombinedPull)
		res, err := runner.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		events += res.KernelEvents
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "simevents/s")
	}
}

// Scale10k measures one 10,000-dispatcher subscriber-pull run — the
// large-N regime the paper never reaches. The workload mirrors the
// scenario scale smoke: a spill-heavy 2000-pattern universe (so the
// tiered PatternSet's spill tier is on the hot path), constant
// aggregate publish load, and a relaxed gossip interval. The recorded
// simevents/s is the headline number of the PR that broke the
// 100-node wall; it is dominated by setup (topology, routing tables,
// subscription install) plus steady-state dispatch over 10k nodes.
func Scale10k(b *testing.B) {
	var events uint64
	var runner scenario.Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := scenario.DefaultParams()
		p.Seed = int64(i + 1)
		p.N = 10_000
		p.NumPatterns = 2000
		p.PatternsPerNode = 1
		p.PublishRate = 0.01 // 100 events/s aggregate
		p.Duration = time.Second
		p.MeasureFrom = 100 * time.Millisecond
		p.MeasureTo = 900 * time.Millisecond
		p.Network.LossRate = 0.05
		p.Algorithm = core.SubscriberPull
		p.Gossip = core.DefaultConfig(core.SubscriberPull)
		p.Gossip.GossipInterval = 200 * time.Millisecond
		res, err := runner.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		events += res.KernelEvents
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "simevents/s")
	}
}

// Install10k measures the stable subscription install alone at the
// Scale10k shape: N=10,000 dispatchers on a degree-4 tree, a
// 2,000-pattern universe, one subscription each — 20M (node, pattern)
// routing rows per op. Node construction stays outside the timer, so
// ns/op, B/op and allocs/op are the installer's: its arena, its sweep
// scratch and the per-node tableSet builds.
func Install10k(b *testing.B) {
	const n = 10_000
	k := sim.New(1)
	topo, err := topology.New(n, 4, k.NewStream(2))
	if err != nil {
		b.Fatal(err)
	}
	nw := network.New(k, topo, network.DefaultConfig(), nil)
	u := matching.Universe{NumPatterns: 2000, MaxMatch: 3}
	subRNG := k.NewStream(3)
	subs := make([][]ident.PatternID, n)
	for i := range subs {
		subs[i] = u.RandomSubscriptions(1, subRNG)
	}
	var pool pubsub.NodePool
	nodes := make([]*pubsub.Node, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range nodes {
			if nodes[j] != nil {
				nodes[j].Release()
			}
			id := ident.NodeID(j)
			nodes[j] = pubsub.NewNodeIn(id, k, nw, topo.Neighbors(id), pubsub.Config{}, &pool)
		}
		b.StartTimer()
		pubsub.InstallStableSubscriptions(topo, nodes, subs)
	}
}

// EndToEndChecked is EndToEnd with all five invariant monitors of
// internal/check armed. The delta against EndToEnd is the full price
// of runtime verification; the absence of a delta when the monitors
// are off is pinned separately (BenchmarkHotPathEndToEnd feeds the
// regression gate, and a checked run must not disturb it).
func EndToEndChecked(b *testing.B) {
	var events uint64
	var runner scenario.Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := scenario.DefaultParams()
		p.Seed = int64(i + 1)
		p.N = 25
		p.Duration = 2 * time.Second
		p.MeasureFrom = 300 * time.Millisecond
		p.MeasureTo = 1500 * time.Millisecond
		p.PublishRate = 15
		p.Algorithm = core.CombinedPull
		p.Gossip = core.DefaultConfig(core.CombinedPull)
		p.Check = check.All()
		res, err := runner.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		events += res.KernelEvents
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "simevents/s")
	}
}
