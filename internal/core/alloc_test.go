package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Allocation-regression pins for the gossip hot path. These tests
// encode PR 2's zero-allocation guarantees with testing.AllocsPerRun so
// a future change that re-introduces per-round garbage fails loudly
// rather than silently regressing throughput.

// TestQuiescentRoundAllocsZero pins the steady-state cost of a gossip
// round with nothing to recover: every engine pays this fixed cost
// every interval T, so it must not allocate at all.
func TestQuiescentRoundAllocsZero(t *testing.T) {
	topo, err := topology.New(9, 3, sim.New(7).NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	subs := make([][]ident.PatternID, topo.N())
	for i := range subs {
		subs[i] = []ident.PatternID{pat32(i % 4), pat32((i + 1) % 4)}
	}
	for _, algo := range []Algorithm{Push, SubscriberPull, PublisherPull, CombinedPull, RandomPull} {
		t.Run(algo.String(), func(t *testing.T) {
			r := newRig(t, topo, subs, DefaultConfig(algo))
			// Warm once: first reads may materialize cached snapshots.
			for _, e := range r.engines {
				e.RunRound()
			}
			allocs := testing.AllocsPerRun(100, func() {
				for _, e := range r.engines {
					e.RunRound()
				}
			})
			if allocs != 0 {
				t.Fatalf("quiescent %v round: %v allocs/run, want 0", algo, allocs)
			}
		})
	}
}

// TestLostBufferDigestReadAllocsZero pins the read path of a populated
// but unchanging Lost buffer: every view the pull gossipers consult is
// served from incremental indexes and cached snapshots.
func TestLostBufferDigestReadAllocsZero(t *testing.T) {
	lb := NewLostBuffer(1024, 10*time.Second)
	now := sim32(1)
	for s := 0; s < 4; s++ {
		for p := 0; p < 4; p++ {
			for q := 1; q <= 8; q++ {
				lb.Add(wire.LostEntry{Source: ident32(s), Pattern: pat32(p), Seq: uint32(q)}, now)
			}
		}
	}
	// Warm the snapshots once.
	lb.All(now)
	lb.Patterns(now)
	lb.Sources(now)
	lb.ForPattern(pat32(0), now)
	lb.ForSource(ident32(0), now)
	allocs := testing.AllocsPerRun(100, func() {
		if len(lb.All(now)) == 0 ||
			len(lb.Patterns(now)) == 0 ||
			len(lb.Sources(now)) == 0 ||
			len(lb.ForPattern(pat32(1), now)) == 0 ||
			len(lb.ForSource(ident32(1), now)) == 0 {
			t.Fatal("digest unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady digest reads: %v allocs/run, want 0", allocs)
	}
}

// TestServeAllMissAllocsZero pins the common case of pull serving: a
// negative digest of which this node holds nothing — in canonical order,
// so the probe cursor walks the rows — is answered without allocating.
func TestServeAllMissAllocsZero(t *testing.T) {
	_, e := indexRig(t, 64, cache.FIFOPolicy, 1)
	for seq := 1; seq <= 40; seq++ {
		e.index(&wire.Event{
			ID:      ident.EventID{Source: ident32(seq % 4), Seq: uint32(seq)},
			Content: content(seq%3, 130),
			Tags:    []ident.PatternSeq{{Pattern: pat32(seq % 3), Seq: uint32(seq)}, {Pattern: 130, Seq: uint32(seq)}},
		})
	}
	var wanted []wire.LostEntry
	for _, p := range []int{0, 1, 7, 130, 400} {
		for s := 0; s < 5; s++ {
			for q := 100; q < 104; q++ {
				wanted = append(wanted, le(s, p, q))
			}
		}
	}
	slices.SortFunc(wanted, compareLost)
	if rem := e.serve(ident32(1), wanted); len(rem) != len(wanted) {
		t.Fatalf("served %d entries of an all-miss digest", len(wanted)-len(rem))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if len(e.serve(ident32(1), wanted)) != len(wanted) {
			t.Fatal("all-miss digest partly served")
		}
	})
	if allocs != 0 {
		t.Fatalf("all-miss serve: %v allocs/run, want 0", allocs)
	}
}

// TestIndexAtCapacityAllocsZero pins the per-event cost of a full
// buffer: indexing a new event into both index rows evicts the oldest
// buffered event and unindexes it, reusing every slot and row, without
// allocating.
func TestIndexAtCapacityAllocsZero(t *testing.T) {
	const capacity, warm, runs = 64, 6 * 64, 500
	_, e := indexRig(t, capacity, cache.FIFOPolicy, 1)
	evs := make([]*wire.Event, capacity+warm+runs+1)
	for i := range evs {
		p := i % 3
		evs[i] = &wire.Event{
			ID:      ident.EventID{Source: ident32(i % 4), Seq: uint32(i + 1)},
			Content: content(p, 130),
			Tags:    []ident.PatternSeq{{Pattern: pat32(p), Seq: uint32(i + 1)}, {Pattern: 130, Seq: uint32(i + 1)}},
		}
	}
	for _, ev := range evs[:capacity+warm] {
		e.index(ev)
	}
	next := capacity + warm
	before := e.buf.Evicted()
	allocs := testing.AllocsPerRun(runs, func() {
		e.index(evs[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("index at capacity: %v allocs/op, want 0", allocs)
	}
	if got := e.buf.Evicted() - before; got != runs+1 {
		t.Fatalf("%d evictions over %d indexed events, want one each", got, runs+1)
	}
	if err := e.AuditInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestLostBufferAddRemoveAllocsZero pins the mutation path of the Lost
// buffer: a detection and its recovery against a standing set of
// outstanding entries allocate nothing once the rows and the detection
// queue have reached their size — recovered entries leave only stale
// queue positions, which compaction reclaims in place.
func TestLostBufferAddRemoveAllocsZero(t *testing.T) {
	const standing, runs = 256, 1000
	lb := NewLostBuffer(4096, 10*time.Second)
	entry := func(i int) wire.LostEntry {
		return wire.LostEntry{Source: ident32(i % 16), Pattern: pat32(i % 8), Seq: uint32(i)}
	}
	for i := 0; i < standing; i++ {
		lb.Add(entry(i), 0)
	}
	next := standing
	op := func() {
		e := entry(next)
		next++
		lb.Add(e, 0)
		if !lb.Remove(e) {
			t.Fatal("Remove missed a fresh entry")
		}
	}
	for i := 0; i < 4*standing; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
		t.Fatalf("Add+Remove on a standing set: %v allocs/op, want 0", allocs)
	}
	if lb.Len() != standing {
		t.Fatalf("Len = %d, want %d", lb.Len(), standing)
	}
	if len(lb.queue) > 2*standing+64 {
		t.Fatalf("detection queue grew to %d positions for %d entries", len(lb.queue), standing)
	}
	if err := lb.AuditInvariants(0); err != nil {
		t.Fatal(err)
	}
}
