package ident

import (
	"math/rand"
	"testing"
)

// TestEventTableMatchesMap drives an EventTable and a map with the same
// random Put, overwrite, Get, Delete and DeleteFunc operations and
// demands the same answers and Len after each one. The key pool is dense
// enough to run the table near its ¾ load bound, so probe runs form,
// wrap around the end of the array and are repaired by backward-shift
// deletion; sources include negative and huge identifiers.
func TestEventTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 6; round++ {
		var tab EventTable[int64]
		peak := 0 // most entries held at once
		ref := make(map[EventID]int64)
		size := []int{5, 12, 48, 700, 3000, 40}[round]
		var pool []EventID
		for _, src := range []NodeID{None, 0, 3, 1 << 30} {
			for seq := 0; seq < size; seq++ {
				pool = append(pool, EventID{Source: src, Seq: uint32(seq)})
			}
		}
		for op := 0; op < 20000; op++ {
			id := pool[rng.Intn(len(pool))]
			switch k := rng.Intn(100); {
			case k < 45:
				v := rng.Int63()
				tab.Put(id, v)
				ref[id] = v
			case k < 75:
				got, ok := tab.Get(id)
				want, wantOK := ref[id]
				if ok != wantOK || got != want {
					t.Fatalf("round %d op %d: Get(%v) = %d, %v, want %d, %v", round, op, id, got, ok, want, wantOK)
				}
			case k < 99:
				_, want := ref[id]
				delete(ref, id)
				if got := tab.Delete(id); got != want {
					t.Fatalf("round %d op %d: Delete(%v) = %v, want %v", round, op, id, got, want)
				}
			default:
				// Delete roughly half the entries, chosen by value.
				tab.DeleteFunc(func(id EventID, v int64) bool {
					if ref[id] != v {
						t.Fatalf("round %d op %d: DeleteFunc saw %v = %d, want %d", round, op, id, v, ref[id])
					}
					return v%2 == 0
				})
				for id, v := range ref {
					if v%2 == 0 {
						delete(ref, id)
					}
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("round %d op %d: Len = %d, want %d", round, op, tab.Len(), len(ref))
			}
			peak = max(peak, len(ref))
		}
		for _, id := range pool {
			got, ok := tab.Get(id)
			want, wantOK := ref[id]
			if ok != wantOK || got != want {
				t.Fatalf("round %d: Get(%v) = %d, %v, want %d, %v", round, id, got, ok, want, wantOK)
			}
		}
		// The array grows only past ¾ load: at most the first power of
		// two ≥ 4/3 of the peak population.
		limit := 8
		for 3*limit < 4*peak {
			limit *= 2
		}
		if len(tab.slots) > limit {
			t.Fatalf("round %d: %d slots for a peak of %d entries", round, len(tab.slots), peak)
		}
	}
}
