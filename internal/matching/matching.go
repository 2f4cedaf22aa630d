// Package matching implements the paper's content model (Sec. IV-A,
// "Events, subscriptions, and matching"): an event is a short sequence
// of numbers drawn uniformly from a universe of Π patterns, an event
// pattern is a single number, and an event matches a subscription when
// its content contains the subscribed number. Each dispatcher
// subscribes to πmax distinct patterns; each event matches at most
// three patterns (paper footnote 5).
package matching

import (
	"math/rand"
	"slices"

	"repro/internal/ident"
)

// Content is the content of an event: the sorted, de-duplicated set of
// pattern numbers it carries. Length is at most the generator's
// maxMatch (3 in the paper).
type Content []ident.PatternID

// Matches reports whether the content contains pattern p.
func (c Content) Matches(p ident.PatternID) bool {
	for _, x := range c {
		if x == p {
			return true
		}
	}
	return false
}

// MatchesAny reports whether any pattern in ps matches the content.
func (c Content) MatchesAny(ps []ident.PatternID) bool {
	for _, p := range ps {
		if c.Matches(p) {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the content.
func (c Content) Clone() Content {
	out := make(Content, len(c))
	copy(out, c)
	return out
}

// Set returns the content as a pattern bitset. The tiered PatternSet
// represents every pattern identifier, so the set is always exact.
func (c Content) Set() (s ident.PatternSet) {
	for _, p := range c {
		s.Add(p)
	}
	return s
}

// Universe describes the pattern space of a simulation.
type Universe struct {
	// NumPatterns is Π, the total number of patterns (70 in the paper).
	NumPatterns int
	// MaxMatch bounds how many patterns one event can match (3).
	MaxMatch int
}

// DefaultUniverse returns the paper's content-model constants.
func DefaultUniverse() Universe {
	return Universe{NumPatterns: 70, MaxMatch: 3}
}

// RandomContent generates event content: MaxMatch numbers drawn
// uniformly (with replacement) from [0, Π), de-duplicated and sorted.
// Duplicates make some events match fewer than MaxMatch patterns,
// exactly as with the paper's "randomly-generated sequence of numbers".
func (u Universe) RandomContent(rng *rand.Rand) Content {
	out := make(Content, 0, u.MaxMatch)
	for i := 0; i < u.MaxMatch; i++ {
		p := ident.PatternID(rng.Intn(u.NumPatterns))
		if !out.Matches(p) {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// RandomSubscriptions draws k distinct patterns uniformly from the
// universe: the subscription set of one dispatcher (k = πmax).
func (u Universe) RandomSubscriptions(k int, rng *rand.Rand) []ident.PatternID {
	var perm []int
	return u.RandomSubscriptionsScratch(k, rng, &perm)
}

// RandomSubscriptionsScratch is RandomSubscriptions drawing into a
// caller-kept permutation buffer, so assembling N dispatchers does not
// allocate N Π-sized permutations. It consumes exactly the draws of
// rng.Perm(Π) — the same inside-out shuffle, one Intn(i+1) per
// position — and returns the same set; *perm is grown as needed and its
// contents are scratch.
func (u Universe) RandomSubscriptionsScratch(k int, rng *rand.Rand, perm *[]int) []ident.PatternID {
	if k > u.NumPatterns {
		k = u.NumPatterns
	}
	if cap(*perm) < u.NumPatterns {
		*perm = make([]int, u.NumPatterns)
	}
	m := (*perm)[:u.NumPatterns]
	// Stale contents are harmless: position i is written before any
	// later step can read it.
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	out := make([]ident.PatternID, k)
	for i, p := range m[:k] {
		out[i] = ident.PatternID(p)
	}
	slices.Sort(out)
	return out
}

// Interest is the set of patterns one dispatcher is locally subscribed
// to, with O(1) matching. Membership lives in a tiered PatternSet
// bitset — two inline machine words for the paper's Π=70 universe,
// spilling to sparse words above Π=128 — so the per-event match on the
// routing path is a handful of shifts instead of map probes for every
// representable identifier.
type Interest struct {
	patterns []ident.PatternID
	set      ident.PatternSet
}

// NewInterest builds an Interest from a pattern list.
func NewInterest(ps []ident.PatternID) *Interest {
	in := &Interest{
		patterns: append([]ident.PatternID(nil), ps...),
	}
	for _, p := range ps {
		in.set.Add(p)
	}
	return in
}

// Has reports whether p is subscribed.
func (in *Interest) Has(p ident.PatternID) bool {
	return in.set.Has(p)
}

// Patterns returns the subscribed patterns. The slice is owned by the
// Interest and must not be mutated.
func (in *Interest) Patterns() []ident.PatternID { return in.patterns }

// Set returns the bitset of subscribed patterns.
func (in *Interest) Set() ident.PatternSet {
	return in.set
}

// Len returns the number of subscribed patterns.
func (in *Interest) Len() int { return len(in.patterns) }

// AppendMatchedTo appends the subscribed patterns contained in content
// to dst, in content order, and returns the extended slice. It never
// allocates when dst has capacity — the forwarding-path replacement
// for MatchedBy.
func (in *Interest) AppendMatchedTo(dst []ident.PatternID, c Content) []ident.PatternID {
	for _, p := range c {
		if in.Has(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// MatchedSet returns the subscribed patterns contained in content as a
// bitset. Allocation-free within the inline tier.
func (in *Interest) MatchedSet(c Content) ident.PatternSet {
	return c.Set().Intersect(in.set)
}

// MatchedBy returns the subscribed patterns contained in content, in
// content order. Returns nil when nothing matches. It allocates a
// fresh slice per call; hot paths use AppendMatchedTo or MatchedSet.
func (in *Interest) MatchedBy(c Content) []ident.PatternID {
	var out []ident.PatternID
	return in.AppendMatchedTo(out, c)
}

// Matches reports whether the content matches at least one subscribed
// pattern.
func (in *Interest) Matches(c Content) bool {
	for _, p := range c {
		if in.set.Has(p) {
			return true
		}
	}
	return false
}
