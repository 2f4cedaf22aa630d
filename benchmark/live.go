package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/live"
	"repro/internal/matching"
	"repro/internal/wire"
)

// liveShape is one live workload: a dispatcher-hosted cluster on
// loopback UDP driven by an open-loop publisher. Every node subscribes
// to exactly one pattern and every publish carries exactly one, so the
// harness can compute the expected deliveries from its own tables.
type liveShape struct {
	name       string
	nodes      int
	degree     int
	patterns   int
	publishers int
	// rate is the aggregate open-loop publish rate, publishes/second.
	rate float64
	// paced is the open-loop phase's length at nominalSeconds.
	paced time.Duration
	algo  core.Algorithm
	// drop is the Bernoulli loss injected on every tree-link send.
	drop float64
}

const (
	// liveSetupReps is how many times a live run builds its cluster; the
	// median is setup_s and the last cluster carries the traffic.
	liveSetupReps = 5
	// drainQuiet ends the drain: this long without a delivery.
	drainQuiet = time.Second
	// drainCap bounds the drain when deliveries never stop.
	drainCap = 15 * time.Second
	// maxGenLagP99 invalidates a run whose generator fell behind: past
	// this lateness the offered load was not the load the shape names.
	maxGenLagP99 = 50 * time.Millisecond
)

// liveInputs is everything the seed decides for a live run.
type liveInputs struct {
	// subs[i] is the one pattern node i subscribes to.
	subs []ident.PatternID
	// publishers are the publishing nodes; publish i goes out from
	// publishers[i%len], so each source's seqno stream is dense and
	// gap detection has something to detect.
	publishers []int
	// content[i] is the one pattern publish i carries.
	content []ident.PatternID
}

// makeLiveInputs draws the subscription table, the publisher set and the
// publish schedule. Patterns are dealt round-robin over a shuffled node
// order, so every pattern has subscribers and KnownPatternCount can
// reach sh.patterns everywhere.
func makeLiveInputs(sh liveShape, nodes, publishes int, seed int64) liveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := liveInputs{
		subs:    make([]ident.PatternID, nodes),
		content: make([]ident.PatternID, publishes),
	}
	for j, node := range rng.Perm(nodes) {
		in.subs[node] = ident.PatternID(j % sh.patterns)
	}
	in.publishers = rng.Perm(nodes)[:min(sh.publishers, nodes)]
	for i := range in.content {
		in.content[i] = ident.PatternID(rng.Intn(sh.patterns))
	}
	return in
}

// expected is the delivery oracle: a publish is due at every node
// subscribed to its pattern, the publisher included (a live node
// delivers its own matching publishes locally).
func (in liveInputs) expected() uint64 {
	audience := map[ident.PatternID]uint64{}
	for _, p := range in.subs {
		audience[p]++
	}
	var sum uint64
	for _, p := range in.content {
		sum += audience[p]
	}
	return sum
}

// liveObserver receives every delivery of a live run. The measured run
// does three atomic adds per delivery (histogram, counter, last-delivery
// stamp) and one comparison; the traced run adds the per-(node, event)
// duplicate bitmap.
type liveObserver struct {
	epoch time.Time
	in    liveInputs
	rate  float64
	// slot[node] is a publishing node's index in in.publishers.
	slot []int64
	// t0 is the open loop's start in ns since epoch, stored before the
	// first publish.
	t0 atomic.Int64

	routed, recovered hist
	delivered         atomic.Uint64
	last              atomic.Int64 // ns since epoch of the latest delivery
	mismatched        atomic.Uint64
	duplicates        atomic.Uint64
	// seen[node] has one bit per publish; nil in the measured run.
	seen [][]atomic.Uint64
}

func newLiveObserver(in liveInputs, rate float64, dupCheck bool) *liveObserver {
	o := &liveObserver{epoch: time.Now(), in: in, rate: rate, slot: make([]int64, len(in.subs))}
	for k, node := range in.publishers {
		o.slot[node] = int64(k)
	}
	if dupCheck {
		o.seen = make([][]atomic.Uint64, len(in.subs))
		for i := range o.seen {
			o.seen[i] = make([]atomic.Uint64, (len(in.content)+63)/64)
		}
	}
	return o
}

func (o *liveObserver) now() time.Duration { return time.Since(o.epoch) }

// onDeliver times the delivery from the publish's due time. The publish
// index is recovered from the event ID: publisher k issues publishes k,
// k+P, k+2P, ... with seqnos 1, 2, 3, ...
func (o *liveObserver) onDeliver(node int, ev *wire.Event, recovered bool) {
	now := int64(o.now())
	i := (int64(ev.ID.Seq)-1)*int64(len(o.in.publishers)) + o.slot[ev.ID.Source]
	lat := now - o.t0.Load() - int64(dueOffset(i, o.rate))
	if recovered {
		o.recovered.Record(lat)
	} else {
		o.routed.Record(lat)
	}
	o.delivered.Add(1)
	o.last.Store(now)
	if len(ev.Content) != 1 || ev.Content[0] != o.in.subs[node] {
		o.mismatched.Add(1)
	}
	if o.seen != nil && i >= 0 && i < int64(len(o.in.content)) {
		w, bit := &o.seen[node][i/64], uint64(1)<<(i%64)
		for {
			old := w.Load()
			if old&bit != 0 {
				o.duplicates.Add(1)
				break
			}
			if w.CompareAndSwap(old, old|bit) {
				break
			}
		}
	}
}

// startLive builds the cluster, subscribes every node and waits until
// every node knows every pattern. It returns the two phase lengths in
// seconds.
func startLive(sh liveShape, seed int64, obs *liveObserver, tr *tracer, parent int) (c *live.Cluster, startS, propS float64, err error) {
	startS = tr.time("live.NewDispatcherCluster", parent, func(int) {
		c, err = live.NewDispatcherCluster(len(obs.in.subs), sh.degree, seed,
			live.DispatcherConfig{Sockets: 2, Batch: 128},
			func(i int) live.Config {
				return live.Config{
					Algorithm: sh.algo,
					DropProb:  sh.drop,
					Epoch:     obs.epoch,
					OnDeliver: func(ev *wire.Event, recovered bool) { obs.onDeliver(i, ev, recovered) },
				}
			})
	})
	if err != nil {
		return nil, 0, 0, err
	}
	propS = tr.time("live.Subscribe+propagate", parent, func(int) {
		for i, n := range c.Nodes {
			n.Subscribe(obs.in.subs[i])
		}
		deadline := time.Now().Add(30 * time.Second)
		for _, n := range c.Nodes {
			for n.KnownPatternCount() < sh.patterns {
				if time.Now().After(deadline) {
					err = fmt.Errorf("subscriptions did not reach node %d within 30s", n.ID())
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	})
	if err != nil {
		c.Close()
		return nil, 0, 0, err
	}
	return c, startS, propS, nil
}

// runLive executes one live workload.
func runLive(sh liveShape, cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	root := tr.begin(sh.name, -1)
	defer tr.end(root)

	nodes := cfg.size.nodes(sh.nodes)
	paced := cfg.size.scale(sh.paced)
	publishes := int(sh.rate * paced.Seconds())

	var in liveInputs
	genS := tr.time("bench.makeLiveInputs", root, func(int) {
		in = makeLiveInputs(sh, nodes, publishes, cfg.seed)
	})
	expected := in.expected()
	if cfg.traced {
		runWireProbes(out, tr, root)
	}
	obs := newLiveObserver(in, sh.rate, cfg.traced)

	var cluster *live.Cluster
	var setups, starts, props []float64
	for rep := 0; rep < liveSetupReps; rep++ {
		if cluster != nil {
			cluster.Close()
		}
		c, startS, propS, err := startLive(sh, cfg.seed, obs, tr, root)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", sh.name, rep, err)
		}
		cluster = c
		setups = append(setups, genS+startS+propS)
		starts = append(starts, startS)
		props = append(props, propS)
	}
	defer cluster.Close()
	batchIO := cluster.Disp.BatchIO()
	out.batchIO = &batchIO
	out.set("setup_s", median(setups))
	out.set("live.cluster_start_s", median(starts))
	out.set("live.sub_propagation_s", median(props))

	// Paced phase: one generator goroutine, open loop.
	var lag, publishCall hist
	cpu0, wall0 := cpuTime(), time.Now()
	pacedSpan := tr.begin("bench.paced", root)
	t0 := obs.now()
	obs.t0.Store(int64(t0))
	openLoop(publishes, sh.rate, t0, obs.now, time.Sleep, &lag, func(i int, _ time.Duration) {
		node := cluster.Nodes[in.publishers[i%len(in.publishers)]]
		id := tr.begin("live.Node.Publish", pacedSpan)
		t := time.Now()
		node.Publish(matching.Content{in.content[i]})
		publishCall.Record(int64(time.Since(t)))
		tr.end(id)
	})
	tr.end(pacedSpan)
	pacedEnd := int64(obs.now())

	// Drain: recovery keeps delivering after the last publish.
	drainStart := time.Now()
	drainSpan := tr.begin("bench.drain", root)
	for time.Since(drainStart) < drainCap {
		idle := obs.now() - time.Duration(max(obs.last.Load(), pacedEnd))
		if idle >= drainQuiet {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr.end(drainSpan)
	wall, cpu := time.Since(wall0), cpuTime()-cpu0
	out.set("bench.drain_s", time.Since(drainStart).Seconds())

	var st live.Stats
	for _, n := range cluster.Nodes {
		s := n.Stats()
		st.Published += s.Published
		st.Delivered += s.Delivered
		st.Recovered += s.Recovered
		st.LossesDetected += s.LossesDetected
		st.GossipSent += s.GossipSent
		st.EventsSent += s.EventsSent
		st.Served += s.Served
		st.DroppedInject += s.DroppedInject
		st.Malformed += s.Malformed
		st.Misrouted += s.Misrouted
		st.RequestsRetried += s.RequestsRetried
		st.RequestsAbandoned += s.RequestsAbandoned
		st.PendingShed += s.PendingShed
		st.QuotaTrimmed += s.QuotaTrimmed
	}
	ds := cluster.Disp.Stats()
	st.Malformed += ds.Malformed
	st.Misrouted += ds.Misrouted
	delivered := obs.delivered.Load()

	// Operations and output checks.
	out.attempted = uint64(publishes)
	out.failed = uint64(publishes) - st.Published
	if delivered > expected {
		out.violate("delivered %d > expected %d", delivered, expected)
	}
	if delivered != st.Delivered {
		out.violate("OnDeliver saw %d deliveries, node counters say %d", delivered, st.Delivered)
	}
	if n := obs.mismatched.Load(); n > 0 {
		out.violate("%d deliveries did not match the receiving node's subscription", n)
	}
	if n := obs.duplicates.Load(); n > 0 {
		out.violate("%d duplicate (node, event) deliveries", n)
	}
	if st.Malformed != 0 || st.Misrouted != 0 {
		out.violate("malformed=%d misrouted=%d datagrams, want 0", st.Malformed, st.Misrouted)
	}
	if p99 := time.Duration(lag.Quantile(0.99)); p99 > maxGenLagP99 {
		out.violate("invalid run: generator p99 lateness %v exceeds %v", p99, maxGenLagP99)
	}

	// End-to-end.
	out.set("run_wall_s", wall.Seconds())
	out.set("sim_events_per_s", float64(delivered)/wall.Seconds())
	out.set("delivery_rate", ratio(float64(delivered), float64(expected)))
	out.set("cpu_us_per_delivery", ratio(float64(cpu.Microseconds()), float64(delivered)))

	// Per-layer: latency. The three formerly end-to-end names first.
	var all hist
	all.Merge(&obs.routed)
	all.Merge(&obs.recovered)
	out.setQuantiles("latency", "_ms", &all, time.Millisecond)
	out.setQuantiles("live.routed_latency", "_ms", &obs.routed, time.Millisecond)
	out.setQuantiles("live.recovery_latency", "_ms", &obs.recovered, time.Millisecond)
	out.setQuantiles("live.publish_call_us", "", &publishCall, time.Microsecond)
	out.set("gossip_event_ratio", ratio(float64(st.GossipSent), float64(st.EventsSent)))
	out.set("bench.gen_lag_p99_ms", lag.Quantile(0.99)/float64(time.Millisecond))
	out.samples["bench.gen_lag_p99_ms"] = lag.Count()
	out.set("bench.gen_lag_max_ms", float64(lag.Max())/float64(time.Millisecond))
	out.set("bench.undelivered", float64(expected)-float64(delivered))

	// Per-layer: counters.
	for name, v := range map[string]uint64{
		"live.published":          st.Published,
		"live.delivered":          st.Delivered,
		"live.recovered":          st.Recovered,
		"live.losses_detected":    st.LossesDetected,
		"live.gossip_sent":        st.GossipSent,
		"live.events_sent":        st.EventsSent,
		"live.served":             st.Served,
		"live.dropped_inject":     st.DroppedInject,
		"live.requests_retried":   st.RequestsRetried,
		"live.requests_abandoned": st.RequestsAbandoned,
		"live.pending_shed":       st.PendingShed,
		"live.quota_trimmed":      st.QuotaTrimmed,
		"live.malformed":          st.Malformed,
		"live.misrouted":          st.Misrouted,
	} {
		out.set(name, float64(v))
	}
	out.set("live.recovered_share", ratio(float64(st.Recovered), float64(st.Delivered)))
	out.set("live.datagram_events_per_delivery", ratio(float64(st.EventsSent), float64(st.Delivered)))
	out.set("live.cpu_s", cpu.Seconds())
	return out, nil
}
