package ident

import (
	"math"
	"math/rand"
	"testing"
)

// TestRowIndexMatchesMap drives a RowIndex and a map with the same
// stream of identifiers — dense ones, negative ones, huge ones and ones
// just past the dense span, which later growth pulls into the dense
// slice — and demands the same answers, rows numbered in order of first
// use, and a dense slice bounded by the row count, over several rounds.
func TestRowIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		var x RowIndex
		ref := make(map[int32]int)
		draw := func() int32 {
			switch r := rng.Intn(10); {
			case r < 5:
				return int32(rng.Intn(200))
			case r < 7:
				return int32(denseFloor + rng.Intn(6*denseFloor))
			case r < 8:
				return -1 - int32(rng.Intn(5))
			case r < 9:
				return math.MaxInt32 - int32(rng.Intn(5))
			default:
				return 1<<30 + int32(rng.Intn(5))
			}
		}
		for op := 0; op < 20000; op++ {
			id := draw()
			if rng.Intn(3) == 0 {
				got, ok := x.Row(id)
				want, wantOK := ref[id]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("round %d op %d: Row(%d) = %d, %v, want %d, %v", round, op, id, got, ok, want, wantOK)
				}
				continue
			}
			row, added := x.Add(id)
			want, had := ref[id]
			if !had {
				want = len(ref)
				ref[id] = want
			}
			if row != want || added == had {
				t.Fatalf("round %d op %d: Add(%d) = %d, %v, want %d, %v", round, op, id, row, added, want, !had)
			}
		}
		for id, want := range ref {
			if got, ok := x.Row(id); !ok || got != want {
				t.Fatalf("round %d: Row(%d) = %d, %v, want %d", round, id, got, ok, want)
			}
		}
		if len(x.dense) > denseSpan(int32(len(ref))) {
			t.Fatalf("dense slice of %d for %d rows", len(x.dense), len(ref))
		}
	}
}
