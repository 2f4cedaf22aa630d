package ident

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestSeqSetMatchesEventIDSet drives SeqSet and a plain map — what the
// map-based EventIDSet it replaced as a dispatcher's received set held —
// with the same random operations and demands identical answers: mostly ascending sequence
// numbers with reordering, numbers far below a row's base, large gaps,
// and several rounds over changing source sets.
func TestSeqSetMatchesEventIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		var s SeqSet
		ref := make(map[EventID]bool)
		sources := 1 + rng.Intn(6)
		srcBase := NodeID(rng.Intn(20))
		next := make([]uint32, sources)
		for i := range next {
			next[i] = uint32(rng.Intn(500))
		}
		draw := func() EventID {
			i := rng.Intn(sources)
			seq := next[i]
			switch r := rng.Intn(20); {
			case r < 12: // the next number
				next[i]++
			case r < 16: // a recent one, out of order
				seq -= uint32(rng.Intn(100))
			case r < 17: // far below anything seen
				seq = uint32(rng.Intn(64))
			case r < 18: // a large gap ahead
				next[i] += uint32(5000 + rng.Intn(100000))
				seq = next[i]
			default: // anywhere up to the current high mark
				seq = uint32(rng.Int63n(int64(seq) + 1))
			}
			return EventID{Source: srcBase + NodeID(i), Seq: seq}
		}
		for op := 0; op < 5000; op++ {
			id := draw()
			if rng.Intn(3) == 0 {
				if got, want := s.Has(id), ref[id]; got != want {
					t.Fatalf("round %d op %d: Has(%v) = %v, want %v", round, op, id, got, want)
				}
				continue
			}
			want := !ref[id]
			ref[id] = true
			if got := s.Add(id); got != want {
				t.Fatalf("round %d op %d: Add(%v) = %v, want %v", round, op, id, got, want)
			}
			if s.Len() != len(ref) {
				t.Fatalf("round %d op %d: Len = %d, want %d", round, op, s.Len(), len(ref))
			}
		}
		for id := range ref {
			if !s.Has(id) {
				t.Fatalf("round %d: lost %v", round, id)
			}
		}
		// Probe identifiers around every member, including other sources.
		for id := range ref {
			for _, p := range []EventID{{id.Source, id.Seq + 1}, {id.Source, id.Seq - 1}, {id.Source + 100, id.Seq}} {
				if s.Has(p) != ref[p] {
					t.Fatalf("round %d: Has(%v) = %v, want %v", round, p, s.Has(p), ref[p])
				}
			}
		}
	}
}

// TestSeqSetEdges covers the row boundaries directly: the zero value,
// word edges, growing below the base, and the top of the sequence space.
func TestSeqSetEdges(t *testing.T) {
	var s SeqSet
	if s.Has(EventID{Source: 1, Seq: 1}) || s.Len() != 0 {
		t.Fatal("zero SeqSet not empty")
	}
	ids := []EventID{
		{Source: 3, Seq: 1000}, {Source: 3, Seq: 63}, {Source: 3, Seq: 64}, {Source: 3, Seq: 0},
		{Source: -1, Seq: 7}, {Source: 5, Seq: 1<<32 - 1}, {Source: 5, Seq: 1<<32 - 64},
	}
	for i, id := range ids {
		if !s.Add(id) {
			t.Fatalf("Add(%v) reported present", id)
		}
		if s.Add(id) {
			t.Fatalf("second Add(%v) reported absent", id)
		}
		for _, prev := range ids[:i+1] {
			if !s.Has(prev) {
				t.Fatalf("after Add(%v): lost %v", id, prev)
			}
		}
	}
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids))
	}
	for _, id := range []EventID{{3, 62}, {3, 65}, {3, 999}, {3, 1 << 31}, {-1, 6}, {4, 7}, {5, 1<<32 - 2}, {5, 0}} {
		if s.Has(id) {
			t.Fatalf("Has(%v) for an absent id", id)
		}
	}
}

// TestSeqSetFarSources: the source index is total over NodeID. Sources
// far outside the dense range — ident.None, 1<<30, the largest NodeID —
// are held on the slow path, and none of them costs memory in
// proportion to its value.
func TestSeqSetFarSources(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s SeqSet
	far := []NodeID{1 << 30, None, math.MaxInt32, math.MinInt32, 1<<30 + 1}
	for _, src := range far {
		for seq := uint32(1); seq <= 64; seq++ {
			if !s.Add(EventID{Source: src, Seq: seq}) {
				t.Fatalf("Add(%v:%d) reported present", src, seq)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("five far sources allocated %d bytes", grew)
	}
	// Dense sources added afterwards share the set with the far ones.
	for src := NodeID(0); src < 3000; src += 7 {
		s.Add(EventID{Source: src, Seq: 9})
	}
	for _, src := range far {
		if !s.Has(EventID{Source: src, Seq: 64}) || s.Has(EventID{Source: src, Seq: 65}) {
			t.Fatalf("source %v lost or gained members", src)
		}
	}
	for src := NodeID(0); src < 3000; src++ {
		if got, want := s.Has(EventID{Source: src, Seq: 9}), src%7 == 0; got != want {
			t.Fatalf("Has(%v:9) = %v, want %v", src, got, want)
		}
	}
	if want := len(far)*64 + (3000+6)/7; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}
