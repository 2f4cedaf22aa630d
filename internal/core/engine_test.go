package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Shared small helpers for this package's tests.
func ident32(n int) ident.NodeID  { return ident.NodeID(n) }
func pat32(p int) ident.PatternID { return ident.PatternID(p) }
func sim32(ms int) sim.Time       { return sim.Time(ms) * time.Millisecond }
func content(ps ...int) matching.Content {
	var c matching.Content
	for _, p := range ps {
		c = append(c, ident.PatternID(p))
	}
	return c
}

// rig is a miniature dispatching network with recovery engines.
type rig struct {
	t       testing.TB
	k       *sim.Kernel
	topo    *topology.Tree
	net     *network.Network
	nodes   []*pubsub.Node
	engines []*Engine

	delivered map[ident.NodeID][]ident.EventID
	recovered map[ident.NodeID][]ident.EventID
}

// newRig builds a reliable-link network over topo with one engine per
// node (unless cfg.Algorithm is NoRecovery). subs[i] lists node i's
// local patterns.
func newRig(t testing.TB, topo *topology.Tree, subs [][]ident.PatternID, cfg Config) *rig {
	t.Helper()
	return newObservedRig(t, topo, subs, cfg, nil)
}

// newObservedRig is newRig whose network reports its traffic to obs.
func newObservedRig(t testing.TB, topo *topology.Tree, subs [][]ident.PatternID, cfg Config, obs network.Observer) *rig {
	t.Helper()
	r := &rig{
		t:         t,
		k:         sim.New(11),
		topo:      topo,
		delivered: make(map[ident.NodeID][]ident.EventID),
		recovered: make(map[ident.NodeID][]ident.EventID),
	}
	ncfg := network.DefaultConfig()
	ncfg.LossRate = 0
	ncfg.OOBLossRate = 0
	r.net = network.New(r.k, topo, ncfg, obs)
	pcfg := pubsub.Config{
		RecordRoutes: cfg.Algorithm.NeedsRoutes(),
		OnDeliver: func(node ident.NodeID, ev *wire.Event, recovered bool) {
			r.delivered[node] = append(r.delivered[node], ev.ID)
			if recovered {
				r.recovered[node] = append(r.recovered[node], ev.ID)
			}
		},
	}
	for i := 0; i < topo.N(); i++ {
		id := ident.NodeID(i)
		r.nodes = append(r.nodes, pubsub.NewNode(id, r.k, r.net, topo.Neighbors(id), pcfg))
	}
	pubsub.InstallStableSubscriptions(topo, r.nodes, subs)
	if cfg.Algorithm != NoRecovery {
		for _, n := range r.nodes {
			e, err := NewEngine(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			r.engines = append(r.engines, e)
		}
	}
	return r
}

func (r *rig) run(d sim.Time) { r.k.Run(r.k.Now() + d) }

// breakLink removes the link without notifying the nodes: the routing
// tables still point at it, so events routed across it are silently
// lost — a deterministic way to force event loss.
func (r *rig) breakLink(a, b int) {
	if err := r.topo.RemoveLink(ident.NodeID(a), ident.NodeID(b)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) restoreLink(a, b int) {
	if err := r.topo.AddLink(ident.NodeID(a), ident.NodeID(b)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) has(node int, id ident.EventID) bool {
	for _, got := range r.delivered[ident.NodeID(node)] {
		if got == id {
			return true
		}
	}
	return false
}

// deterministicCfg returns a config with PForward=1 so gossip routing
// has no probabilistic thinning.
func deterministicCfg(a Algorithm) Config {
	cfg := DefaultConfig(a)
	cfg.PForward = 1
	return cfg
}

// loseOneEvent publishes three events from node 0 on pattern 5; the
// middle one is published while the link (brk) is silently broken and
// is therefore lost. Returns the lost event.
func loseOneEvent(r *rig, brkA, brkB int) *wire.Event {
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.breakLink(brkA, brkB)
	lost := r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(brkA, brkB)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	return lost
}

func TestSubscriberPullRecoversFromCoSubscriber(t *testing.T) {
	// 0-1-2: both 1 and 2 subscribe pattern 5. Breaking 1-2 loses the
	// middle event at 2 only; 2's gossip toward co-subscriber 1 pulls
	// it back.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("subscriber-based pull did not recover the event")
	}
	if len(r.recovered[2]) != 1 {
		t.Fatalf("node 2 recovered %d events, want 1", len(r.recovered[2]))
	}
	if got := r.engines[2].Stats().Recovered; got != 1 {
		t.Fatalf("engine stats Recovered = %d, want 1", got)
	}
	if got := r.engines[1].Stats().RetransmitsServed; got != 1 {
		t.Fatalf("co-subscriber served %d retransmits, want 1", got)
	}
}

func TestSubscriberPullSoleSubscriberCannotRecover(t *testing.T) {
	// The paper's explanation for sub-pull's delivery plateau: with a
	// single subscriber for the pattern there is nobody to gossip with.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if r.has(2, lost.ID) {
		t.Fatal("sole subscriber recovered an event with no co-subscribers (impossible for sub-pull)")
	}
	if r.engines[2].LostLen() == 0 {
		t.Fatal("loss not even detected")
	}
}

func TestPublisherPullRecoversFromSource(t *testing.T) {
	// Sole subscriber, but publisher-based pull walks the recorded
	// route back to the source, which caches its own events.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(PublisherPull))
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("publisher-based pull did not recover the event")
	}
	if got := r.engines[0].Stats().RetransmitsServed; got != 1 {
		t.Fatalf("publisher served %d retransmits, want 1", got)
	}
}

func TestPublisherPullShortCircuit(t *testing.T) {
	// 0-1-2-3: 1 and 3 subscribe pattern 5. The event lost at 3 is
	// cached at 1 (a subscriber on the route), which short-circuits the
	// walk before it reaches publisher 0.
	topo := topology.NewLine(4)
	subs := [][]ident.PatternID{nil, {5}, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(PublisherPull))
	lost := loseOneEvent(r, 2, 3)
	r.run(2 * time.Second)
	if !r.has(3, lost.ID) {
		t.Fatal("publisher-based pull did not recover the event")
	}
	if got := r.engines[1].Stats().RetransmitsServed; got != 1 {
		t.Fatalf("on-route subscriber served %d, want 1 (short-circuit)", got)
	}
	if got := r.engines[0].Stats().RetransmitsServed; got != 0 {
		t.Fatalf("publisher served %d, want 0 (walk should stop at node 1)", got)
	}
}

func TestPushRecovers(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(Push))
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("push did not recover the event")
	}
	// The requester asked the gossiper (node 0, the publisher, is the
	// only node caching the event) out-of-band.
	if got := r.engines[2].Stats().RequestsSent; got == 0 {
		t.Fatal("no push requests sent")
	}
}

func TestCombinedPullRecovers(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	cfg := deterministicCfg(CombinedPull)
	cfg.PSource = 0.5
	r := newRig(t, topo, subs, cfg)
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	// Sub-pull can do nothing here (sole subscriber); the publisher
	// side of combined pull must kick in.
	if !r.has(2, lost.ID) {
		t.Fatal("combined pull did not recover the event")
	}
}

func TestRandomPullRecovers(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(RandomPull))
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	// On a line the random walk from 2 must pass 1 and reach 0, which
	// caches the event as its publisher.
	if !r.has(2, lost.ID) {
		t.Fatal("random pull did not recover the event")
	}
}

func TestNoRecoveryBaseline(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, Config{Algorithm: NoRecovery})
	lost := loseOneEvent(r, 1, 2)
	r.run(2 * time.Second)
	if r.has(2, lost.ID) {
		t.Fatal("event recovered without any recovery algorithm")
	}
}

func TestLossDetectionGaps(t *testing.T) {
	// Lose two consecutive events: detection must record both gaps from
	// a single later arrival.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.breakLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	if got := r.engines[2].Stats().LossesDetected; got != 2 {
		t.Fatalf("LossesDetected = %d, want 2", got)
	}
}

func TestLossAtStreamHeadDetected(t *testing.T) {
	// The very first events being lost must still be detected: sequence
	// numbers start at 1 and the expected counter at 0.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	r.breakLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	if got := r.engines[2].Stats().LossesDetected; got != 1 {
		t.Fatalf("LossesDetected = %d, want 1 (loss before any delivery)", got)
	}
}

func TestMultipleGapsFullyRecovered(t *testing.T) {
	// 0-1-2, subscribers 1 and 2. Lose seq 2 and 3 at node 2; a later
	// arrival reveals both gaps at once and pull recovery must drain
	// the whole Lost buffer.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.breakLink(1, 2)
	r.nodes[0].Publish(content(5), 0)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	r.nodes[0].Publish(content(5), 0) // seq 4 triggers detection at 2
	r.run(2 * time.Second)
	// Both events recovered from node 1 eventually.
	if got := len(r.recovered[2]); got != 2 {
		t.Fatalf("recovered %d events, want 2", got)
	}
	if got := r.engines[2].LostLen(); got != 0 {
		t.Fatalf("LostLen = %d after full recovery, want 0", got)
	}
}

func TestPushPendingSuppressesDuplicateRequests(t *testing.T) {
	// Two co-subscribers of pattern 5 both gossip digests to node 2; it
	// must not fire one request per digest within the pending TTL.
	topo := topology.NewStar(4) // 0 center; 1,2,3 leaves
	subs := [][]ident.PatternID{nil, {5}, {5}, {5}}
	cfg := deterministicCfg(Push)
	cfg.PendingTTL = 10 * time.Second
	r := newRig(t, topo, subs, cfg)
	r.breakLink(0, 2)
	lost := r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(0, 2)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("push did not recover the event")
	}
	if got := r.engines[2].Stats().RequestsSent; got != 1 {
		t.Fatalf("RequestsSent = %d, want 1 (pending suppression)", got)
	}
}

func TestServeDeduplicatesMultiPatternEvents(t *testing.T) {
	// An event matching two locally subscribed patterns that is lost
	// produces two Lost entries, but a responder must retransmit the
	// event once.
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5, 6}, {5, 6}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	r.nodes[0].Publish(content(5, 6), 0)
	r.run(50 * time.Millisecond)
	r.breakLink(1, 2)
	lost := r.nodes[0].Publish(content(5, 6), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(1, 2)
	r.nodes[0].Publish(content(5, 6), 0)
	r.run(2 * time.Second)
	if !r.has(2, lost.ID) {
		t.Fatal("event not recovered")
	}
	if got := r.engines[1].Stats().RetransmitsServed; got != 1 {
		t.Fatalf("RetransmitsServed = %d, want 1 (dedup across patterns)", got)
	}
	if got := r.engines[2].Stats().Recovered; got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
}

func TestPullSkipsRoundsWhenNothingLost(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	r := newRig(t, topo, subs, deterministicCfg(SubscriberPull))
	r.run(time.Second)
	for i, e := range r.engines {
		s := e.Stats()
		if s.RoundsStarted != 0 {
			t.Fatalf("engine %d started %d rounds with nothing lost", i, s.RoundsStarted)
		}
		if s.RoundsSkipped == 0 {
			t.Fatalf("engine %d skipped no rounds", i)
		}
	}
}

func TestPushGossipsContinuously(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{{5}, nil, {5}}
	r := newRig(t, topo, subs, deterministicCfg(Push))
	r.nodes[0].Publish(content(5), 0)
	r.run(time.Second)
	// Node 0 caches its own event and knows pattern 5, so every round
	// sends a digest — the paper's point about push wasting bandwidth
	// in loss-free settings (Sec. IV-E).
	if got := r.engines[0].Stats().RoundsStarted; got < 20 {
		t.Fatalf("push started only %d rounds in 1s at T=30ms", got)
	}
}

func TestAdaptiveIntervalGrowsWhenIdle(t *testing.T) {
	topo := topology.NewLine(2)
	subs := [][]ident.PatternID{{5}, {5}}
	cfg := deterministicCfg(SubscriberPull)
	cfg.Adapt = &adapt.Config{
		IntervalMin: 10 * time.Millisecond,
		IntervalMax: 500 * time.Millisecond,
	}
	r := newRig(t, topo, subs, cfg)
	r.run(5 * time.Second)
	for i, e := range r.engines {
		if got := e.GossipInterval(); got != 500*time.Millisecond {
			t.Fatalf("engine %d interval = %v after idle run, want max 500ms", i, got)
		}
	}
}

func TestAdaptiveIntervalShrinksUnderLoss(t *testing.T) {
	topo := topology.NewLine(3)
	subs := [][]ident.PatternID{nil, {5}, {5}}
	cfg := deterministicCfg(SubscriberPull)
	cfg.LostTTL = time.Hour
	cfg.Adapt = &adapt.Config{
		IntervalMin: 5 * time.Millisecond,
		IntervalMax: 100 * time.Millisecond,
	}
	r := newRig(t, topo, subs, cfg)
	// Lose an event that can never be recovered (nobody caches it:
	// break both around node 2's only provider)... Lose at 2 with no
	// co-subscriber cache: node 1 recovers it though. Instead make the
	// loss unrecoverable by keeping the event out of every cache:
	// publish from 0 with both downstream losses.
	r.breakLink(0, 1)
	r.nodes[0].Publish(content(5), 0)
	r.run(50 * time.Millisecond)
	r.restoreLink(0, 1)
	r.nodes[0].Publish(content(5), 0)
	r.run(3 * time.Second)
	// Node 1 and 2 both lost seq 1; node 1 can serve 2's pulls for seq
	// 1? No — node 1 never received it either. Both keep gossiping.
	if got := r.engines[2].GossipInterval(); got != 5*time.Millisecond {
		t.Fatalf("interval = %v under persistent loss, want min 5ms", got)
	}
}

func TestEngineRejectsNoRecovery(t *testing.T) {
	topo := topology.NewLine(2)
	r := newRig(t, topo, [][]ident.PatternID{nil, nil}, Config{Algorithm: NoRecovery})
	if _, err := NewEngine(r.nodes[0], Config{Algorithm: NoRecovery}); err == nil {
		t.Fatal("NewEngine accepted NoRecovery")
	}
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := Config{Algorithm: Push}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig(Push)
	if cfg != def {
		t.Fatalf("Normalize() = %+v, want defaults %+v", cfg, def)
	}
	bad := []Config{
		{Algorithm: Algorithm(99)},
		{Algorithm: Push, PForward: 1.5},
		{Algorithm: Push, BufferSize: -1},
	}
	for _, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Fatalf("Normalize accepted %+v", c)
		}
	}
}

func TestAlgorithmParseAndString(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Fatal("ParseAlgorithm accepted bogus name")
	}
	if Algorithm(42).String() != "algorithm(42)" {
		t.Fatal("unknown algorithm String wrong")
	}
}

func TestAlgorithmCapabilities(t *testing.T) {
	if Push.NeedsSeqTags() || NoRecovery.NeedsSeqTags() {
		t.Fatal("push/no-recovery should not need seq tags")
	}
	for _, a := range []Algorithm{SubscriberPull, PublisherPull, CombinedPull, RandomPull} {
		if !a.NeedsSeqTags() {
			t.Fatalf("%v should need seq tags", a)
		}
	}
	if !PublisherPull.NeedsRoutes() || !CombinedPull.NeedsRoutes() {
		t.Fatal("publisher/combined pull should need routes")
	}
	if Push.NeedsRoutes() || SubscriberPull.NeedsRoutes() {
		t.Fatal("push/subscriber pull should not need routes")
	}
}

// TestLossDetectionWideGap feeds one event whose sequence number jumps
// past the Lost buffer's capacity: the whole gap is counted, the buffer
// ends as if every missing number had been added in order, and a
// forged jump of 2^31 finishes at once instead of looping 2^31 times.
func TestLossDetectionWideGap(t *testing.T) {
	const capacity = 4
	for _, seq := range []uint32{2, capacity, capacity + 1, capacity + 2, 3 * capacity, 1 << 31} {
		topo := topology.NewLine(3)
		subs := [][]ident.PatternID{nil, nil, {5}}
		cfg := deterministicCfg(SubscriberPull)
		cfg.LostCapacity = capacity
		r := newRig(t, topo, subs, cfg)
		r.nodes[2].HandleMessage(1, &wire.Event{
			ID:      ident.EventID{Source: 0, Seq: 1},
			Content: content(5),
			Tags:    []ident.PatternSeq{{Pattern: 5, Seq: seq + 1}},
		}, false)
		e := r.engines[2]
		if got, want := e.Stats().LossesDetected, uint64(seq); got != want {
			t.Fatalf("jump to %d: LossesDetected = %d, want %d", seq+1, got, want)
		}
		// The oracle adds every missing number, or for the forged jump
		// the last few times the capacity, which FIFO eviction reduces
		// to the same newest entries.
		oracle := NewLostBuffer(capacity, cfg.LostTTL)
		for q := max(1, int64(seq)-4*capacity); q <= int64(seq); q++ {
			oracle.Add(wire.LostEntry{Source: 0, Pattern: 5, Seq: uint32(q)}, 0)
		}
		got, want := e.lost.All(0), oracle.All(0)
		if !slices.Equal(got, want) {
			t.Fatalf("jump to %d: Lost buffer holds %v, want %v", seq+1, got, want)
		}
	}
}
