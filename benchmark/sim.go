package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// simLeg is one scenario.Run of a simulation workload.
type simLeg struct {
	name   string
	params scenario.Params
}

// simShape is one simulation workload: its legs and how to run them.
type simShape struct {
	name string
	legs []simLeg
	// inputs regenerates, from the seed, whatever the legs share beyond
	// their Params literals (the churn fault plan); set-up pays for it
	// every time. Nil when the Params are the whole input.
	inputs func()
	// shared runs the legs back to back on one scenario.Runner after an
	// untimed warm-up, as a figure sweep does; otherwise each leg is a
	// fresh scenario.Run, as a one-off large run is.
	shared bool
	// setupReps is how many times assembly is timed for setup_s, and reps
	// how many times the legs are measured; both report the median. A
	// repetition replays the same seeds, so only host time differs.
	setupReps, reps int
	// check names the internal/check monitors the traced pass arms; nil
	// for none.
	check *check.Options
	// verify is the untimed output check of the measured results.
	verify func(out *outcome, results []scenario.Result, tr *tracer, parent int) error
}

// assemblyOnly cuts p to one gossip interval of simulated time: what is
// left of the run's wall time is topology, subscription install, node,
// engine and buffer construction.
func assemblyOnly(p scenario.Params) scenario.Params {
	p.Duration = p.Gossip.GossipInterval
	p.MeasureFrom, p.MeasureTo = 0, 0
	return p
}

// newRun returns the function that executes one leg: a fresh
// scenario.Run, or one warmed-up Runner shared by every call.
func newRun(sh simShape) (func(scenario.Params) (scenario.Result, error), error) {
	if !sh.shared {
		return scenario.Run, nil
	}
	var runner scenario.Runner
	warm := sh.legs[0].params
	warm.Duration /= 10
	warm.MeasureFrom, warm.MeasureTo = 0, 0
	if _, err := runner.Run(warm); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sh.name, err)
	}
	return runner.Run, nil
}

// runLegs executes every leg once and returns the results and per-leg
// wall seconds. arm, when non-nil, edits each leg's Params first.
func runLegs(sh simShape, run func(scenario.Params) (scenario.Result, error), tr *tracer, parent int, arm func(*scenario.Params)) ([]scenario.Result, []float64, error) {
	results := make([]scenario.Result, len(sh.legs))
	walls := make([]float64, len(sh.legs))
	for i, leg := range sh.legs {
		p := leg.params
		if arm != nil {
			arm(&p)
		}
		var err error
		walls[i] = tr.time("scenario.Run "+leg.name, parent, func(int) { results[i], err = run(p) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: leg %s: %w", sh.name, leg.name, err)
		}
	}
	return results, walls, nil
}

// runSim executes one simulation workload: timed set-up, the measured
// legs, then the untimed output checks. The traced run replaces the
// set-up repetitions with the layer probes and runs the legs twice,
// untraced and traced, to price the tracing.
func runSim(sh simShape, cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	root := tr.begin(sh.name, -1)
	defer tr.end(root)

	if cfg.traced {
		// Its timings feed nothing end to end: once is enough.
		sh.setupReps, sh.reps = 1, 1
		runSimProbes(out, sh.legs[len(sh.legs)-1].params, tr, root)
	}
	var setups []float64
	for rep := 0; rep < sh.setupReps; rep++ {
		id := tr.begin("bench.setup", root)
		start := time.Now()
		if sh.inputs != nil {
			sh.inputs()
		}
		for _, leg := range sh.legs {
			if _, err := scenario.Run(assemblyOnly(leg.params)); err != nil {
				return nil, fmt.Errorf("%s: assembling leg %s: %w", sh.name, leg.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		tr.end(id)
		runtime.GC()
	}
	out.set("setup_s", median(setups))

	run, err := newRun(sh)
	if err != nil {
		return nil, err
	}
	var (
		results               []scenario.Result
		walls                 []float64
		wallReps, cpuReps     []float64
		legReps               = map[string][]float64{}
		m0, m1                runtime.MemStats
		events, deliveries    float64
		expected, weightedSum float64
	)
	runtime.ReadMemStats(&m0)
	for rep := 0; rep < sh.reps; rep++ {
		cpu0 := cpuTime()
		measured := tr.begin("bench.measured", root)
		results, walls, err = runLegs(sh, run, tr, measured, nil)
		tr.end(measured)
		if err != nil {
			return nil, err
		}
		cpuReps = append(cpuReps, float64((cpuTime() - cpu0).Microseconds()))
		var wall float64
		byName := map[string]float64{}
		for i, w := range walls {
			wall += w
			byName[sh.legs[i].name] += w
		}
		wallReps = append(wallReps, wall)
		for name, w := range byName {
			legReps[name] = append(legReps[name], w)
		}
		runtime.GC()
	}
	runtime.ReadMemStats(&m1)
	if rss, err := peakRSSMB(); err == nil {
		// Read before the untimed checks: a verification twin must not
		// set the high-water mark the measured run is judged by.
		out.set("peak_rss_mb", rss)
	}

	// Counts repeat exactly across repetitions; take the last one's.
	for i, r := range results {
		events += float64(r.KernelEvents)
		deliveries += float64(r.Deliveries)
		expected += float64(r.ExpectedDeliveries)
		weightedSum += r.DeliveryRate * float64(r.ExpectedDeliveries)
		out.attempted += r.EventsPublished
		if r.Deliveries > r.ExpectedDeliveries {
			out.violate("leg %s: %d deliveries > %d expected", sh.legs[i].name, r.Deliveries, r.ExpectedDeliveries)
		}
		if r.EventsPublished == 0 || r.KernelEvents == 0 {
			out.violate("leg %s: published %d events in %d kernel events", sh.legs[i].name, r.EventsPublished, r.KernelEvents)
		}
	}
	wall := median(wallReps)
	out.set("run_wall_s", wall)
	out.set("sim_events_per_s", events/wall)
	// Window delivery rate per leg, weighted by the leg's audience: the
	// Result carries the windowed rate but only whole-run counts.
	out.set("delivery_rate", ratio(weightedSum, expected))
	out.set("cpu_us_per_delivery", ratio(median(cpuReps), deliveries))
	out.set("bench.undelivered", expected-deliveries)
	for name, ws := range legReps {
		out.set("scenario.wall_s."+name, median(ws))
	}
	perRep := float64(sh.reps)
	out.set("scenario.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/perRep)
	out.set("scenario.mallocs", float64(m1.Mallocs-m0.Mallocs)/perRep)
	out.set("scenario.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/perRep)

	if err := sh.verify(out, results, tr, root); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := runSimTraced(sh, out, wall, tr, root); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSimTraced re-runs the legs with a trace ring (and, where the
// workload allows, every invariant monitor) and fills the per-layer
// counts from the traced results and rings.
func runSimTraced(sh simShape, out *outcome, untraced float64, tr *tracer, root int) error {
	var rings []*trace.Ring
	arm := func(p *scenario.Params) {
		if p.Shards > 1 {
			// Trace and Check need the sequential executor; the sharded
			// leg's counts are bit-identical to its twin's by the
			// verification above, so the twin is traced in its place.
			p.Shards = 1
		}
		ring := trace.New(1 << 16)
		rings = append(rings, ring)
		p.Trace = ring
		p.Check = sh.check
	}
	run, err := newRun(sh)
	if err != nil {
		return err
	}
	id := tr.begin("bench.traced", root)
	results, walls, err := runLegs(sh, run, tr, id, arm)
	tr.end(id)
	if err != nil {
		// A *check.Error lands here: the run aborted on a violation.
		out.violate("traced pass: %v", err)
		return nil
	}
	var traced float64
	for _, w := range walls {
		traced += w
	}
	if sh.legs[0].params.Shards <= 1 {
		// The sharded workload's traced pass runs a different executor;
		// its wall difference is not tracing overhead.
		out.set("scenario.trace_overhead_pct", 100*(traced-untraced)/untraced)
	}
	setSimLayerCounts(out, results, rings)
	return nil
}

// setSimLayerCounts fills the per-layer counters of a simulation
// workload from its legs' results and trace rings.
func setSimLayerCounts(out *outcome, results []scenario.Result, rings []*trace.Ring) {
	var gossip, gossipWeighted, eventMsgs float64
	var recvPerEvent, published float64
	for i, r := range results {
		n := float64(r.Params.N)
		out.add("sim.kernel_events", float64(r.KernelEvents))
		if i == 0 {
			out.set("topology.mean_path_len", r.MeanPathLength)
		}
		ring := rings[i]
		sends := float64(ring.Count(trace.Send))
		out.add("network.sends", sends)
		out.add("network.losses", float64(ring.Count(trace.Loss)))
		out.add("topology.mutations", float64(ring.Count(trace.LinkDown)+ring.Count(trace.LinkUp)))
		g := r.GossipPerDispatcher * n
		gossip += g
		if r.GossipEventRatio > 0 {
			eventMsgs += g / r.GossipEventRatio
			gossipWeighted += g
		} else {
			eventMsgs += sends // no recovery: every send is a routed event
		}
		recvPerEvent += r.ReceiversPerEvent * float64(r.EventsPublished)
		published += float64(r.EventsPublished)

		s := r.EngineStats
		out.add("core.rounds_started", float64(s.RoundsStarted))
		out.add("core.rounds_skipped", float64(s.RoundsSkipped))
		out.add("core.losses_detected", float64(s.LossesDetected))
		out.add("core.recovered", float64(s.Recovered))
		out.add("core.duplicate_recoveries", float64(s.DuplicateRecoveries))
		out.add("core.requests_sent", float64(s.RequestsSent))
		out.add("core.retransmits_served", float64(s.RetransmitsServed))
		out.add("core.gossip_per_dispatcher", r.GossipPerDispatcher)

		out.add("faults.crashes", float64(r.Crashes))
		out.add("faults.restarts", float64(r.Restarts))
		out.add("faults.node_downtime_s", r.NodeDowntime.Seconds())
		out.add("faults.repair_abandoned", float64(r.RepairAbandoned))
		out.add("repair.rounds", float64(r.Repair.Rounds))
		out.add("repair.links_added", float64(r.Repair.LinksAdded))
		out.add("repair.links_dropped", float64(r.Repair.LinksDropped))
		out.add("repair.reattaches", float64(r.Repair.Reattaches))
		out.add("repair.reattach_total_ms", float64(r.Repair.ReattachTotal)/float64(time.Millisecond))
		out.add("adapt.rounds", float64(r.Adapt.Rounds))
		out.add("adapt.adjustments", float64(r.Adapt.Adjustments))
		out.add("adapt.mode_switches", float64(r.Adapt.ModeSwitches))
		out.add("adapt.walk_switches", float64(r.Adapt.WalkSwitches))
		out.add("adapt.push_rounds", float64(r.Adapt.PushRounds))
		out.add("adapt.pull_rounds", float64(r.Adapt.PullRounds))
	}
	m := out.metrics
	out.set("network.loss_share", ratio(m["network.losses"], m["network.sends"]))
	out.set("pubsub.events_sent", eventMsgs)
	out.set("pubsub.receivers_per_event", ratio(recvPerEvent, published))
	out.set("gossip_event_ratio", ratio(gossip, eventMsgs))
	out.set("core.useful_recovery_ratio", ratio(m["core.recovered"], m["core.recovered"]+m["core.duplicate_recoveries"]))
	out.set("repair.mean_reattach_ms", ratio(m["repair.reattach_total_ms"], m["repair.reattaches"]))
	out.set("adapt.push_round_share", ratio(m["adapt.push_rounds"], m["adapt.push_rounds"]+m["adapt.pull_rounds"]))

	// Simulated latencies are bucket-quantized and seed-independent, so
	// they are per-layer facts of the last recovering leg, not timings.
	last := results[len(results)-1]
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out.set("metrics.routed_latency_p50_ms", ms(last.RoutedLatencyP50))
	out.set("metrics.recovery_latency_p50_ms", ms(last.RecoveryLatencyP50))
	out.set("metrics.recovery_latency_p99_ms", ms(last.RecoveryLatencyP99))
	out.set("metrics.recovered_share", last.RecoveredShare)
}

// sameResult lists the fields in which two runs that must be
// bit-identical differ.
func sameResult(a, b scenario.Result) []string {
	var diffs []string
	cmp := func(field string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v != %v", field, x, y))
		}
	}
	cmp("DeliveryRate", a.DeliveryRate, b.DeliveryRate)
	cmp("ExpectedDeliveries", a.ExpectedDeliveries, b.ExpectedDeliveries)
	cmp("Deliveries", a.Deliveries, b.Deliveries)
	cmp("Recoveries", a.Recoveries, b.Recoveries)
	cmp("EventsPublished", a.EventsPublished, b.EventsPublished)
	cmp("KernelEvents", a.KernelEvents, b.KernelEvents)
	cmp("GossipEventRatio", a.GossipEventRatio, b.GossipEventRatio)
	cmp("EngineStats", a.EngineStats, b.EngineStats)
	return diffs
}

// runSimPaper is the paper's own regime: scenario.DefaultParams under
// no-recovery, push and combined-pull on one Runner.
func runSimPaper(cfg runConfig, tr *tracer) (*outcome, error) {
	sh := simShape{name: "sim-paper", shared: true, setupReps: 5, reps: 3, check: check.All()}
	for _, algo := range []core.Algorithm{core.NoRecovery, core.Push, core.CombinedPull} {
		p := scenario.DefaultParams()
		p.Seed = cfg.seed
		p.N = cfg.size.nodes(p.N)
		p.Duration = cfg.size.scale(25 * time.Second)
		p.MeasureFrom = cfg.size.scale(time.Second)
		p.MeasureTo = cfg.size.scale(23 * time.Second)
		p.Algorithm = algo
		p.Gossip = core.DefaultConfig(algo)
		sh.legs = append(sh.legs, simLeg{algo.String(), p})
	}
	sh.verify = func(out *outcome, results []scenario.Result, tr *tracer, parent int) error {
		// Same seed, fresh state: the routing-only leg must replay bit
		// for bit.
		replay, err := scenario.Run(sh.legs[0].params)
		if err != nil {
			return fmt.Errorf("sim-paper: replaying %s: %w", sh.legs[0].name, err)
		}
		for _, d := range sameResult(results[0], replay) {
			out.violate("same-seed replay of %s differs: %s", sh.legs[0].name, d)
		}
		return nil
	}
	return runSim(sh, cfg, tr)
}

// scaleParams is the large-N regime of ROADMAP item 1.
func scaleParams(cfg runConfig, shards int) scenario.Params {
	p := scenario.DefaultParams()
	p.Seed = cfg.seed
	p.N = cfg.size.nodes(10_000)
	p.NumPatterns = 2000
	p.PatternsPerNode = 1
	p.Publishers = cfg.size.nodes(200)
	p.PublishPatterns = 200
	p.PublishRate = 25
	p.Network.LossRate = 0.05
	p.Algorithm = core.SubscriberPull
	p.Gossip = core.DefaultConfig(core.SubscriberPull)
	p.Gossip.GossipInterval = 200 * time.Millisecond
	p.MetricsMode = scenario.MetricsStreaming
	p.Duration = cfg.size.scale(8 * time.Second)
	p.MeasureFrom = cfg.size.scale(200 * time.Millisecond)
	p.MeasureTo = cfg.size.scale(6 * time.Second)
	p.Shards = shards
	return p
}

// runSimScale is sim-scale (shards = 1) and sim-sharded (shards = 2):
// one Params, two executors.
func runSimScale(cfg runConfig, tr *tracer, shards int) (*outcome, error) {
	sh := simShape{name: cfg.workload, setupReps: 2, reps: 2}
	sh.legs = []simLeg{{"seed0", scaleParams(cfg, shards)}}
	sh.verify = func(out *outcome, results []scenario.Result, tr *tracer, parent int) error {
		if shards <= 1 {
			return nil
		}
		// The parallel executor's contract: bit-identical to sequential.
		var twin scenario.Result
		var err error
		wall := tr.time("scenario.Run sequential-twin", parent, func(int) { twin, err = scenario.Run(scaleParams(cfg, 1)) })
		if err != nil {
			return fmt.Errorf("%s: sequential twin: %w", sh.name, err)
		}
		for _, d := range sameResult(results[0], twin) {
			out.violate("sharded run differs from its sequential twin: %s", d)
		}
		out.set("sim.shard_speedup", wall/out.metrics["scenario.wall_s.seed0"])
		return nil
	}
	return runSim(sh, cfg, tr)
}

// churnRounds is how many times sim-churn runs its three overlays. Every
// leg draws its own overlay, workload and fault plan from a seed derived
// from the run's seed and the leg's index, so a run averages
// churnRounds × 3 independent plans: at this length one plan holds 1 to 9
// crashes, and a single plan's luck moved delivery_rate by 11 % between
// seeds.
const churnRounds = 2

// runSimChurn is the fault path: node churn, self-stabilizing repair and
// the hybrid adaptive controller, on all three overlay families.
func runSimChurn(cfg runConfig, tr *tracer) (*outcome, error) {
	sh := simShape{name: "sim-churn", shared: true, setupReps: 5, reps: 1}
	// Every monitor but recovery causality, plus repair convergence — the
	// set the repository's own churn tests arm. Causality demands a
	// recorded channel loss or overlay mutation behind each recovery, and
	// a crash under self-stabilizing repair is neither until the protocol
	// notices it: events the dead dispatcher never forwarded are missed
	// with nothing on record. FinalGrace is the protocol's convergence
	// budget (scenario's ConvergenceBound for this repair mode): a
	// shortened run may end sooner than that after its last fault, and an
	// overlay still mid-repair then is not a violation.
	sh.check = &check.Options{
		FIFO: true, Delivery: true, Topology: true, Conservation: true, Adaptation: true, Convergence: true,
		FinalGrace: 3 * time.Second,
	}
	n := cfg.size.nodes(100)
	kinds := topology.Kinds()
	legSeed := func(i int) int64 { return sim.DeriveSeed(cfg.seed, int64(i)) }
	plan := func(i int) *faults.Plan {
		return faults.ChurnPlan(legSeed(i), n, 2, cfg.size.scale(6*time.Second), 300*time.Millisecond)
	}
	sh.inputs = func() {
		for i := 0; i < churnRounds*len(kinds); i++ {
			plan(i)
		}
	}
	for i := 0; i < churnRounds*len(kinds); i++ {
		p := scenario.DefaultParams()
		p.Seed = legSeed(i)
		p.N = n
		p.Duration = cfg.size.scale(10 * time.Second)
		p.MeasureFrom = cfg.size.scale(time.Second)
		p.MeasureTo = cfg.size.scale(8 * time.Second)
		p.Overlay = kinds[i%len(kinds)]
		p.Network.LossRate = 0.05
		p.Network.OOBLossRate = 0.05
		p.FaultPlan = plan(i)
		p.Algorithm = core.Hybrid
		p.Adapt = &adapt.Config{}
		p.Repair = scenario.RepairSelfStabilizing
		sh.legs = append(sh.legs, simLeg{p.Overlay.String(), p})
	}
	sh.verify = func(out *outcome, results []scenario.Result, tr *tracer, parent int) error {
		for i, r := range results {
			if planned := uint64(len(sh.legs[i].params.FaultPlan.Actions)); r.Restarts > r.Crashes || r.Crashes > planned {
				out.violate("leg %d (%s): %d crashes, %d restarts from a plan of %d actions", i, sh.legs[i].name, r.Crashes, r.Restarts, planned)
			}
		}
		return nil
	}
	return runSim(sh, cfg, tr)
}
