package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Micro-benchmarks of the gossip hot path. They time what the
// allocation pins in alloc_test.go guarantee; the pins, not these,
// fail when a change re-introduces per-op garbage.

// BenchmarkGossipRound measures one quiescent combined-pull gossip
// round: the fixed cost every engine pays every interval T regardless
// of load. With nothing outstanding in the Lost buffer, a round scans
// the local subscription list and the digest indexes and skips.
func BenchmarkGossipRound(b *testing.B) {
	const n = 25
	k := sim.New(1)
	topo, err := topology.New(n, 4, k.NewStream(2))
	if err != nil {
		b.Fatal(err)
	}
	u := matching.Universe{NumPatterns: 100, MaxMatch: 5}
	subRNG := k.NewStream(3)
	subs := make([][]ident.PatternID, n)
	for i := range subs {
		subs[i] = u.RandomSubscriptions(10, subRNG)
	}
	r := newRig(b, topo, subs, DefaultConfig(CombinedPull))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.engines[i%n].RunRound()
	}
}

// BenchmarkDigestBuild measures steady-state digest reads: every view
// the pull gossipers consult each round (full, per-pattern, per-source,
// and the distinct pattern/source lists) against a populated but
// unchanging Lost buffer.
func BenchmarkDigestBuild(b *testing.B) {
	const patterns, sources, perPair = 8, 8, 4
	lb := NewLostBuffer(4096, 10*time.Second)
	now := sim32(1)
	for s := 0; s < sources; s++ {
		for p := 0; p < patterns; p++ {
			for q := 1; q <= perPair; q++ {
				lb.Add(le(s, p, q), now)
			}
		}
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(lb.All(now))
		sink += len(lb.Patterns(now))
		sink += len(lb.Sources(now))
		sink += len(lb.ForPattern(pat32(i%patterns), now))
		sink += len(lb.ForSource(ident32(i%sources), now))
	}
	b.StopTimer()
	if sink == 0 && b.N > 0 {
		b.Fatal("empty digests")
	}
}

// BenchmarkLostBuffer measures the mutation path of the Lost buffer: one
// detection (sorted insert into its pattern row), one digest read of the
// mutated pattern (snapshot rebuild), and one recovery removal per op,
// over a standing population of entries.
func BenchmarkLostBuffer(b *testing.B) {
	const standing = 512
	lb := NewLostBuffer(4096, 10*time.Second)
	now := sim32(1)
	entry := func(i int) wire.LostEntry { return le(i%16, i%32, i) }
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

// benchIndexEngine returns a Hybrid engine — both index rows — whose
// FIFO buffer of the given capacity is full of events from stream, and
// the next events of stream. Each event matches three of 12 patterns,
// tagged per (source, pattern) as dispatchers stamp them, from 20
// sources; at capacity 1024 a row holds about 256 entries, the paper
// regime's row size.
func benchIndexEngine(b *testing.B, capacity, more int) (*Engine, []*wire.Event) {
	b.Helper()
	cfg := DefaultConfig(Hybrid)
	cfg.BufferSize = capacity
	r := newRig(b, topology.NewLine(2), [][]ident.PatternID{{0}, {1}}, cfg)
	e := r.engines[0]
	e.buf = cache.New(capacity, cache.FIFOPolicy, rand.New(rand.NewSource(1)))
	e.buf.SetOnEvict(e.unindex)
	rng := rand.New(rand.NewSource(2))
	const sources, patterns = 20, 12
	var evSeq [sources]uint32
	var patSeq [sources][patterns]uint32
	evs := make([]*wire.Event, capacity+more)
	for i := range evs {
		src := rng.Intn(sources)
		evSeq[src]++
		ev := &wire.Event{ID: ident.EventID{Source: ident32(src), Seq: evSeq[src]}}
		for _, p := range rng.Perm(patterns)[:3] {
			patSeq[src][p]++
			ev.Content = append(ev.Content, pat32(p))
			ev.Tags = append(ev.Tags, ident.PatternSeq{Pattern: pat32(p), Seq: patSeq[src][p]})
		}
		slices.Sort(ev.Content)
		evs[i] = ev
	}
	for _, ev := range evs[:capacity] {
		e.index(ev)
	}
	return e, evs[capacity:]
}

// BenchmarkIndexAtCapacity measures the per-event cost of a full
// buffer: one op indexes a new event into three push and three pull
// rows, evicting the oldest buffered event and unindexing it.
func BenchmarkIndexAtCapacity(b *testing.B) {
	e, evs := benchIndexEngine(b, 1024, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.index(evs[i])
	}
}

// BenchmarkServeMiss measures pull serving against a full buffer of
// large rows: one op serves a 32-entry negative digest in canonical
// order — four patterns, two sources each, four sequence numbers each —
// of which the node holds none.
func BenchmarkServeMiss(b *testing.B) {
	e, _ := benchIndexEngine(b, 1024, 0)
	var wanted []wire.LostEntry
	for _, p := range []int{0, 3, 7, 11} {
		for _, s := range []int{4, 15} {
			for q := 5000; q < 5004; q++ {
				wanted = append(wanted, le(s, p, q))
			}
		}
	}
	slices.SortFunc(wanted, compareLost)
	if rem := e.serve(ident32(1), wanted); len(rem) != len(wanted) {
		b.Fatalf("served %d entries of an all-miss digest", len(wanted)-len(rem))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.serve(ident32(1), wanted)
	}
}
