package core

import (
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ident"
	"repro/internal/topology"
	"repro/internal/wire"
)

// adaptiveCfg returns a deterministic config with the closed-loop
// controller enabled.
func adaptiveCfg(a Algorithm) Config {
	cfg := deterministicCfg(a)
	cfg.Adapt = &adapt.Config{}
	return cfg
}

// TestKnobSnapshotConsolidation is the torn-read regression test: every
// probabilistic knob read of a round (and of the gossip handlers that
// run between rounds) must go through the engine's coherent knob
// snapshot, not through scattered Config field reads. Mutating the
// Config copy after construction must therefore change nothing.
func TestKnobSnapshotConsolidation(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))

	// The snapshot is seeded from the config at construction.
	for _, e := range r.engines {
		k := e.Knobs()
		if k.PForward != 1 || k.PSource != 0.5 || k.Fanout != 1 || k.Interval != 30*time.Millisecond {
			t.Fatalf("initial knob snapshot %+v does not match config", k)
		}
	}

	// Sabotage the raw config fields. If any hot-path read still went
	// through cfg instead of the snapshot, gossip would be thinned to
	// nothing and the recovery below would fail.
	for _, e := range r.engines {
		e.cfg.PForward = 0
		e.cfg.PSource = 0
	}
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("recovery failed after mutating cfg fields: a knob read bypassed the per-round snapshot")
	}
}

// TestStaticKnobsNeverMove: without a controller the snapshot installed
// at construction is permanent.
func TestStaticKnobsNeverMove(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(CombinedPull))
	before := r.engines[2].Knobs()
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("combined pull did not recover")
	}
	if got := r.engines[2].Knobs(); got != before {
		t.Fatalf("static engine's knobs moved: %+v -> %+v", before, got)
	}
	if _, ok := r.engines[2].AdaptStats(); ok {
		t.Fatal("static engine reports adaptive stats")
	}
}

// TestAdaptiveKnobsRefreshAtRoundBoundary: with the controller wired,
// the engine's snapshot always equals the controller's latest output,
// the ticker follows the adapted interval, and the observer sees every
// boundary.
func TestAdaptiveKnobsRefreshAtRoundBoundary(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, adaptiveCfg(CombinedPull))

	var snaps []adapt.Snapshot
	r.engines[2].SetAdaptObserver(func(s adapt.Snapshot) { snaps = append(snaps, s) })
	r.nodes[0].Publish(content(5), 0)
	r.run(2 * time.Second)

	if len(snaps) == 0 {
		t.Fatal("observer saw no round boundaries")
	}
	last := snaps[len(snaps)-1]
	if got := r.engines[2].Knobs(); got != last.Knobs {
		t.Fatalf("engine knobs %+v != last controller snapshot %+v", got, last.Knobs)
	}
	if got := r.engines[2].GossipInterval(); got != last.Knobs.Interval {
		t.Fatalf("ticker period %v != adapted interval %v", got, last.Knobs.Interval)
	}
}

// TestAdaptiveConvergesToMinimumOverheadWhenCalm is the engine-level
// ε=0 metamorphic pin: with zero loss and zero churn the controller
// relaxes every knob to its cheap bound and never makes a structural
// switch.
func TestAdaptiveConvergesToMinimumOverheadWhenCalm(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, adaptiveCfg(CombinedPull))

	for i := 0; i < 40; i++ {
		r.nodes[0].Publish(content(5), 0)
		r.run(100 * time.Millisecond)
	}
	norm := adapt.Config{}.Normalized(30 * time.Millisecond)
	for i, e := range r.engines {
		k := e.Knobs()
		if k.Interval != norm.IntervalMax {
			t.Errorf("engine %d: interval %v, want relaxed to %v", i, k.Interval, norm.IntervalMax)
		}
		if k.PForward != norm.PForwardMin {
			t.Errorf("engine %d: PForward %v, want relaxed to %v", i, k.PForward, norm.PForwardMin)
		}
		if k.Fanout != norm.FanoutMin {
			t.Errorf("engine %d: fanout %d, want %d", i, k.Fanout, norm.FanoutMin)
		}
		if k.Walk {
			t.Errorf("engine %d: walk engaged on a calm run", i)
		}
		st, ok := e.AdaptStats()
		if !ok {
			t.Fatalf("engine %d: no adaptive stats", i)
		}
		if st.ModeSwitches != 0 || st.WalkSwitches != 0 {
			t.Errorf("engine %d: structural switches on a calm run: %+v", i, st)
		}
		if st.Loss != 0 {
			t.Errorf("engine %d: loss estimate %v on a lossless run", i, st.Loss)
		}
	}
}

// TestHybridStartsInPushAndRecovers: a hybrid engine in its initial
// push mode still recovers a lost event (push digests + requests).
func TestHybridStartsInPushAndRecovers(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, adaptiveCfg(Hybrid))
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("hybrid (push mode) did not recover the event")
	}
	st, ok := r.engines[2].AdaptStats()
	if !ok {
		t.Fatal("hybrid engine reports no adaptive stats")
	}
	if st.PushRounds == 0 {
		t.Fatalf("hybrid never ran a push round: %+v", st)
	}
}

// TestHybridSwitchesToPullUnderSustainedLoss: heavy sustained loss
// pushes the estimate over the high band and the hybrid switches to
// pull-based recovery; once conditions clear it recovers the backlog.
func TestHybridSwitchesToPullUnderSustainedLoss(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, adaptiveCfg(Hybrid))

	// Publish a warm-up event, then a long lossy burst: the link 1-2 is
	// silently broken so node 2 misses everything, and the gap detection
	// after restore floods the loss estimate.
	r.nodes[0].Publish(content(5), 0)
	r.run(100 * time.Millisecond)
	r.breakLink(1, 2)
	var lost []ident.EventID
	for i := 0; i < 20; i++ {
		lost = append(lost, r.nodes[0].Publish(content(5), 0).ID)
		r.run(30 * time.Millisecond)
	}
	r.restoreLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(4 * time.Second)

	for _, id := range lost {
		if !r.has(2, id) {
			t.Fatalf("hybrid did not recover lost event %v", id)
		}
	}
	st, _ := r.engines[2].AdaptStats()
	if st.ModeSwitches == 0 {
		t.Fatalf("hybrid never switched modes under sustained loss: %+v", st)
	}
	if st.PullRounds == 0 {
		t.Fatalf("hybrid never ran a pull round: %+v", st)
	}
}

// TestConfigHybridDefaultsAdapt: normalizing a Hybrid config without an
// Adapt block fills in the default controller config.
func TestConfigHybridDefaultsAdapt(t *testing.T) {
	cfg, err := Config{Algorithm: Hybrid}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Adapt == nil {
		t.Fatal("hybrid config normalized without an Adapt block")
	}
	if !Hybrid.NeedsSeqTags() || !Hybrid.NeedsRoutes() {
		t.Fatal("hybrid must need seq tags and routes (it runs both push and combined pull)")
	}
}

// TestConfigRejectsInvalidAdapt: validation runs on the normalized
// controller config.
func TestConfigRejectsInvalidAdapt(t *testing.T) {
	cfg := DefaultConfig(CombinedPull)
	cfg.Adapt = &adapt.Config{Shrink: 1.5}
	if _, err := cfg.Normalize(); err == nil {
		t.Fatal("invalid Adapt config accepted")
	}
}

// TestHybridPullModeDampsPushFlood: mode discipline applies to
// propagation, not consumption. A hybrid engine that has switched to
// pull still harvests received push digests, but must not re-forward
// them — on cyclic overlays the un-deduplicated digest flood is
// self-sustaining, and storms launched before a mode switch would
// otherwise outlive it.
func TestHybridPullModeDampsPushFlood(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, adaptiveCfg(Hybrid))

	ev := r.nodes[0].Publish(content(5), 0)
	r.run(60 * time.Millisecond)

	// Push mode: a received digest is forwarded onward.
	digest := &wire.GossipPush{Gossiper: ident32(0), Pattern: 5, Digest: []ident.EventID{ev.ID}}
	before := r.net.Sent()
	r.engines[1].HandleRecovery(ident32(0), digest, false)
	if r.net.Sent() == before {
		t.Fatal("push-mode engine did not forward a received push digest")
	}

	// Drive node 1's controller into pull mode: break the upstream link
	// so it misses a burst, then restore it — the seqno-gap flood pushes
	// the loss estimate over the band.
	r.breakLink(0, 1)
	for i := 0; i < 20; i++ {
		r.nodes[0].Publish(content(5), 0)
		r.run(30 * time.Millisecond)
	}
	r.restoreLink(0, 1)
	r.nodes[0].Publish(content(5), 0)
	r.run(2 * time.Second)
	st, ok := r.engines[1].AdaptStats()
	if !ok || st.Mode != adapt.ModePull {
		t.Fatalf("engine 1 mode = %v, want pull after the lossy burst", st.Mode)
	}

	// Pull mode: the same digest is consumed but not re-forwarded.
	before = r.net.Sent()
	r.engines[1].HandleRecovery(ident32(0), digest, false)
	if got := r.net.Sent(); got != before {
		t.Fatalf("pull-mode engine amplified a push digest (%d sends)", got-before)
	}
}

// TestWalkModeDampsSubPullFlood: the walk degradation's counterpart to
// the hybrid pull-mode push damper. A node whose controller has fallen
// back to random walks considers the routing state stale; it must
// serve what it can from a routed sub-pull digest but not re-forward
// it — on cyclic overlays the un-deduplicated digest flood is
// self-sustaining and walk-mode nodes are the ones watching it fail.
func TestWalkModeDampsSubPullFlood(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, adaptiveCfg(CombinedPull))

	// Routed mode: an unservable digest is forwarded onward.
	digest := &wire.GossipSubPull{Gossiper: ident32(0), Pattern: 5,
		Wanted: []wire.LostEntry{{Source: ident32(7), Pattern: 5, Seq: 99}}}
	before := r.net.Sent()
	r.engines[1].HandleRecovery(ident32(0), digest, false)
	if r.net.Sent() == before {
		t.Fatal("routed-mode engine did not forward an unservable sub-pull digest")
	}

	// Give node 1 detected losses it cannot recover: miss a burst while
	// cut off, let one later event through so the seqno gap is detected,
	// then isolate it again. The stall streak engages the walk
	// degradation.
	r.nodes[0].Publish(content(5), 0)
	r.run(100 * time.Millisecond)
	r.breakLink(0, 1)
	for i := 0; i < 5; i++ {
		r.nodes[0].Publish(content(5), 0)
		r.run(10 * time.Millisecond)
	}
	r.restoreLink(0, 1)
	r.breakLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(5 * time.Millisecond)
	r.breakLink(0, 1)
	r.run(1500 * time.Millisecond)
	st, ok := r.engines[1].AdaptStats()
	if !ok || st.WalkSwitches%2 != 1 {
		t.Fatalf("engine 1 walk switches = %d, want walk engaged after the stall", st.WalkSwitches)
	}
	r.restoreLink(0, 1)
	r.restoreLink(1, 2)

	// Walk mode: the same digest is served (nothing to serve here) but
	// not re-forwarded.
	before = r.net.Sent()
	r.engines[1].HandleRecovery(ident32(0), digest, false)
	if got := r.net.Sent(); got != before {
		t.Fatalf("walk-mode engine amplified a sub-pull digest (%d sends)", got-before)
	}
}
