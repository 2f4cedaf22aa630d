package core

import (
	"testing"
	"time"

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
