package ident

import (
	"testing"
	"testing/quick"
)

func TestStringers(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{NodeID(3).String(), "node(3)"},
		{None.String(), "node(none)"},
		{PatternID(7).String(), "pattern(7)"},
		{NoPattern.String(), "pattern(none)"},
		{EventID{Source: 2, Seq: 9}.String(), "event(2:9)"},
		{PatternSeq{Pattern: 4, Seq: 1}.String(), "pattern(4)#1"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestEventIDLessIsTotalOrder(t *testing.T) {
	f := func(s1, s2 int32, q1, q2 uint32) bool {
		a := EventID{Source: NodeID(s1), Seq: q1}
		b := EventID{Source: NodeID(s2), Seq: q2}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a) // exactly one direction holds
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
