// Package ident defines the identifier types shared by every layer of
// the publish-subscribe stack: dispatcher (node) identifiers, pattern
// identifiers, globally unique event identifiers, and the
// per-(source, pattern) sequence tags that enable loss detection in the
// pull-based epidemic algorithms (paper Sec. III-B).
package ident

import "fmt"

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
