package matching

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
)

func TestZipfDistSkew(t *testing.T) {
	u := Universe{NumPatterns: 50, MaxMatch: 3}
	z := NewZipfDist(u.NumPatterns, 1.0)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, u.NumPatterns)
	for i := 0; i < 50_000; i++ {
		counts[z.Draw(rng)]++
	}
	// Zipf(1): P(0)/P(1) = 2, P(0)/P(9) = 10. Allow generous slack.
	if counts[0] < counts[1] || counts[1] < counts[4] {
		t.Fatalf("popularity not monotone in rank: %v", counts[:5])
	}
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 5 || ratio > 20 {
		t.Fatalf("P(0)/P(9) = %v, want ≈10", ratio)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 50_000 {
		t.Fatalf("draws outside the universe: %d", total)
	}
}

func TestZipfDistDeterministic(t *testing.T) {
	z := NewZipfDist(70, 0.8)
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if z.Draw(a) != z.Draw(b) {
			t.Fatal("same source diverged")
		}
	}
}

func TestZipfContentShape(t *testing.T) {
	u := Universe{NumPatterns: 70, MaxMatch: 3}
	z := NewZipfDist(u.NumPatterns, 1.2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		c := u.ZipfContent(z, rng)
		if len(c) == 0 || len(c) > u.MaxMatch {
			t.Fatalf("content size %d out of [1, %d]", len(c), u.MaxMatch)
		}
		if !slices.IsSorted(c) {
			t.Fatalf("content not sorted: %v", c)
		}
		for j := 1; j < len(c); j++ {
			if c[j] == c[j-1] {
				t.Fatalf("duplicate pattern in content: %v", c)
			}
		}
	}
}

func TestZipfSubscriptionsDistinct(t *testing.T) {
	u := Universe{NumPatterns: 20, MaxMatch: 3}
	z := NewZipfDist(u.NumPatterns, 2.0) // heavy skew forces the fill path
	rng := rand.New(rand.NewSource(3))
	hot := 0
	for i := 0; i < 100; i++ {
		ps := u.ZipfSubscriptions(15, z, rng)
		if len(ps) != 15 {
			t.Fatalf("got %d patterns, want 15", len(ps))
		}
		if !slices.IsSorted(ps) {
			t.Fatalf("subscriptions not sorted: %v", ps)
		}
		seen := map[ident.PatternID]bool{}
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("duplicate subscription: %v", ps)
			}
			seen[p] = true
		}
		if seen[0] {
			hot++
		}
	}
	if hot != 100 {
		t.Fatalf("pattern 0 missing from %d/100 heavy-skew 15-of-20 draws", 100-hot)
	}
	// Asking for more than the universe clamps.
	if ps := u.ZipfSubscriptions(100, z, rng); len(ps) != u.NumPatterns {
		t.Fatalf("oversized request returned %d patterns, want %d", len(ps), u.NumPatterns)
	}
}

func TestZipfDistRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipfDist(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipfDist(tc.n, tc.s)
		}()
	}
}
