package matching

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func TestContentMatches(t *testing.T) {
	c := Content{3, 17, 42}
	if !c.Matches(17) {
		t.Fatal("Matches(17) = false, want true")
	}
	if c.Matches(5) {
		t.Fatal("Matches(5) = true, want false")
	}
	if !c.MatchesAny([]ident.PatternID{5, 42}) {
		t.Fatal("MatchesAny([5 42]) = false, want true")
	}
	if c.MatchesAny([]ident.PatternID{5, 6}) {
		t.Fatal("MatchesAny([5 6]) = true, want false")
	}
	if c.MatchesAny(nil) {
		t.Fatal("MatchesAny(nil) = true, want false")
	}
}

func TestRandomContentInvariants(t *testing.T) {
	u := DefaultUniverse()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		c := u.RandomContent(rng)
		if len(c) < 1 || len(c) > u.MaxMatch {
			t.Fatalf("content length %d outside [1, %d]", len(c), u.MaxMatch)
		}
		for j := range c {
			if c[j] < 0 || int(c[j]) >= u.NumPatterns {
				t.Fatalf("pattern %v outside universe", c[j])
			}
			if j > 0 && c[j] <= c[j-1] {
				t.Fatalf("content %v not sorted/deduped", c)
			}
		}
	}
}

func TestRandomContentUniformCoverage(t *testing.T) {
	u := DefaultUniverse()
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, u.NumPatterns)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, p := range u.RandomContent(rng) {
			counts[p]++
		}
	}
	// Each pattern should appear in roughly trials*3/70 events.
	want := float64(trials) * 3 / float64(u.NumPatterns)
	for p, got := range counts {
		if float64(got) < want*0.7 || float64(got) > want*1.3 {
			t.Fatalf("pattern %d drawn %d times, want about %.0f", p, got, want)
		}
	}
}

func TestRandomSubscriptionsDistinct(t *testing.T) {
	u := DefaultUniverse()
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 30; k++ {
		ps := u.RandomSubscriptions(k, rng)
		if len(ps) != k {
			t.Fatalf("got %d subscriptions, want %d", len(ps), k)
		}
		seen := map[ident.PatternID]bool{}
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("duplicate pattern %v in subscriptions", p)
			}
			seen[p] = true
		}
	}
	// k beyond the universe is clamped.
	if got := len(u.RandomSubscriptions(200, rng)); got != u.NumPatterns {
		t.Fatalf("oversized k gave %d patterns, want %d", got, u.NumPatterns)
	}
}

// TestRandomSubscriptionsScratchMatchesPerm pins the scratch-reusing
// draw against the rng.Perm formulation it replaced: the same sets and
// the same generator state after every draw, with one scratch buffer
// carried (stale) across universes of different sizes.
func TestRandomSubscriptionsScratchMatchesPerm(t *testing.T) {
	viaPerm := func(u Universe, k int, rng *rand.Rand) []ident.PatternID {
		k = min(k, u.NumPatterns)
		out := make([]ident.PatternID, k)
		for i, p := range rng.Perm(u.NumPatterns)[:k] {
			out[i] = ident.PatternID(p)
		}
		slices.Sort(out)
		return out
	}
	a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	pick := rand.New(rand.NewSource(12))
	var perm []int
	for i := 0; i < 1000; i++ {
		u := Universe{NumPatterns: 1 + pick.Intn(400), MaxMatch: 3}
		k := pick.Intn(u.NumPatterns + 5)
		got, want := u.RandomSubscriptionsScratch(k, a, &perm), viaPerm(u, k, b)
		if !slices.Equal(got, want) {
			t.Fatalf("draw %d (k=%d, Π=%d): %v, rng.Perm gives %v", i, k, u.NumPatterns, got, want)
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d (k=%d, Π=%d): generators diverged", i, k, u.NumPatterns)
		}
	}
}

func TestInterest(t *testing.T) {
	in := NewInterest([]ident.PatternID{2, 9})
	if !in.Has(2) || !in.Has(9) || in.Has(3) {
		t.Fatal("Has gave wrong membership")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	c := Content{1, 2, 9}
	got := in.MatchedBy(c)
	if len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Fatalf("MatchedBy = %v, want [2 9]", got)
	}
	if !in.Matches(c) {
		t.Fatal("Matches = false, want true")
	}
	if in.Matches(Content{1, 3}) {
		t.Fatal("Matches = true, want false")
	}
	if in.MatchedBy(Content{1, 3}) != nil {
		t.Fatal("MatchedBy with no overlap should be nil")
	}
}

// TestReceiversFractionMatchesPaperFig7 checks the analytical anchor
// points of paper Fig. 7: with Π=70 and 3-pattern events, πmax=5
// reaches ≈25% of dispatchers and πmax=30 reaches ≈80%.
func TestReceiversFractionMatchesPaperFig7(t *testing.T) {
	u := DefaultUniverse()
	rng := rand.New(rand.NewSource(11))
	frac := func(pimax int) float64 {
		const nodes, events = 100, 400
		interests := make([]*Interest, nodes)
		for i := range interests {
			interests[i] = NewInterest(u.RandomSubscriptions(pimax, rng))
		}
		var hit, total int
		for e := 0; e < events; e++ {
			c := u.RandomContent(rng)
			for _, in := range interests {
				if in.Matches(c) {
					hit++
				}
				total++
			}
		}
		return float64(hit) / float64(total)
	}
	if f := frac(5); f < 0.15 || f > 0.32 {
		t.Fatalf("πmax=5 reaches %.0f%% of dispatchers, paper says ≈25%%", f*100)
	}
	if f := frac(30); f < 0.70 || f > 0.90 {
		t.Fatalf("πmax=30 reaches %.0f%% of dispatchers, paper says ≈80%%", f*100)
	}
}

func TestInterestMatchedByProperty(t *testing.T) {
	u := DefaultUniverse()
	f := func(seed int64, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NewInterest(u.RandomSubscriptions(int(k%30)+1, rng))
		c := u.RandomContent(rng)
		matched := in.MatchedBy(c)
		// Every matched pattern is both subscribed and in the content;
		// every (subscribed ∩ content) pattern is matched.
		for _, p := range matched {
			if !in.Has(p) || !c.Matches(p) {
				return false
			}
		}
		n := 0
		for _, p := range c {
			if in.Has(p) {
				n++
			}
		}
		return n == len(matched) && in.Matches(c) == (n > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomContent(b *testing.B) {
	u := DefaultUniverse()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = u.RandomContent(rng)
	}
}

func BenchmarkInterestMatches(b *testing.B) {
	u := DefaultUniverse()
	rng := rand.New(rand.NewSource(1))
	in := NewInterest(u.RandomSubscriptions(2, rng))
	c := u.RandomContent(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.Matches(c)
	}
}
