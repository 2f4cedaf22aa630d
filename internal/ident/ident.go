// Package ident defines the identifier types shared by every layer of
// the publish-subscribe stack: dispatcher (node) identifiers, pattern
// identifiers, globally unique event identifiers, and the
// per-(source, pattern) sequence tags that enable loss detection in the
// pull-based epidemic algorithms (paper Sec. III-B).
package ident

import (
	"fmt"
	"slices"
)

// NodeID identifies a dispatcher in the overlay network.
//
// NodeIDs are dense: a network of N dispatchers uses IDs 0..N-1, which
// lets hot paths index slices instead of maps.
type NodeID int32

// None is the sentinel for "no node". It is distinct from every valid
// NodeID (valid IDs are non-negative).
const None NodeID = -1

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n == None {
		return "node(none)"
	}
	return fmt.Sprintf("node(%d)", int32(n))
}

// PatternID identifies an event pattern. In the paper's content model a
// pattern is a single number drawn from the universe [0, Π); an event
// matches a pattern when its content contains that number.
type PatternID int32

// NoPattern is the sentinel for "no pattern".
const NoPattern PatternID = -1

// String implements fmt.Stringer.
func (p PatternID) String() string {
	if p == NoPattern {
		return "pattern(none)"
	}
	return fmt.Sprintf("pattern(%d)", int32(p))
}

// EventID identifies an event globally and uniquely: the pair of the
// source identifier and a sequence number that the source increments on
// every publish (paper Sec. III-B, footnote 3).
type EventID struct {
	Source NodeID
	Seq    uint32
}

// String implements fmt.Stringer.
func (id EventID) String() string {
	return fmt.Sprintf("event(%d:%d)", int32(id.Source), id.Seq)
}

// Less imposes a total order on event IDs (source-major), used only to
// keep encodings and test output deterministic.
func (id EventID) Less(other EventID) bool {
	if id.Source != other.Source {
		return id.Source < other.Source
	}
	return id.Seq < other.Seq
}

// PatternSeq is one element of the extended event identifier required
// by the pull algorithms: the per-(source, pattern) sequence number
// assigned at the source for each pattern the event matches
// (paper Sec. III-B, "Pull"). Seq starts at 1 for the first event a
// source publishes matching the pattern.
type PatternSeq struct {
	Pattern PatternID
	Seq     uint32
}

// String implements fmt.Stringer.
func (ps PatternSeq) String() string {
	return fmt.Sprintf("%v#%d", ps.Pattern, ps.Seq)
}

// EventIDSet is a set of event identifiers. The zero value is ready to
// use with Add via the nil-map-safe methods below only after
// initialization; use NewEventIDSet.
//
// Its remaining users are the live runtime (internal/live: a node's
// received set and per-pattern push index), the flooding baseline
// (internal/flood: per-dispatcher seen sets), the push-digest benchmark
// (internal/bench) and the map-based oracles of the simulator's tests.
// The simulator keeps no event identifier in a Go map: a dispatcher's
// received set is a SeqSet, the recovery engine's push index sorted
// per-pattern rows (internal/core), and the event cache and pending
// requests an EventTable.
//
// Sorted caches its result between mutations: the push gossiper reads
// the same digest every round, so a set that did not change since the
// last round hands back the cached snapshot without iterating or
// sorting anything.
type EventIDSet struct {
	m    map[EventID]struct{}
	snap []EventID // cached Sorted() result; nil when stale
}

// NewEventIDSet returns an empty set with capacity hint n.
func NewEventIDSet(n int) *EventIDSet {
	return &EventIDSet{m: make(map[EventID]struct{}, n)}
}

// Add inserts id and reports whether it was absent.
func (s *EventIDSet) Add(id EventID) bool {
	if _, ok := s.m[id]; ok {
		return false
	}
	s.m[id] = struct{}{}
	s.snap = nil
	return true
}

// Clear empties the set in place, keeping the map's buckets for reuse.
// Previously returned Sorted snapshots are unaffected.
func (s *EventIDSet) Clear() {
	clear(s.m)
	s.snap = nil
}

// Has reports whether id is in the set.
func (s *EventIDSet) Has(id EventID) bool {
	_, ok := s.m[id]
	return ok
}

// Remove deletes id from the set and reports whether it was present.
func (s *EventIDSet) Remove(id EventID) bool {
	if _, ok := s.m[id]; !ok {
		return false
	}
	delete(s.m, id)
	s.snap = nil
	return true
}

// Len returns the number of elements.
func (s *EventIDSet) Len() int { return len(s.m) }

// Sorted returns the elements in canonical (source-major) order. The
// returned slice is an immutable snapshot shared across calls until the
// next mutation; callers must not modify it.
func (s *EventIDSet) Sorted() []EventID {
	if s.snap == nil {
		out := make([]EventID, 0, len(s.m))
		for id := range s.m {
			out = append(out, id)
		}
		slices.SortFunc(out, func(a, b EventID) int {
			switch {
			case a.Less(b):
				return -1
			case b.Less(a):
				return 1
			default:
				return 0
			}
		})
		s.snap = out
	}
	return s.snap
}
