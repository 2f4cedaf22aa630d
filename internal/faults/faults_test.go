package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestChurnPlanDeterministic(t *testing.T) {
	a := ChurnPlan(42, 50, 1.5, 10*time.Second, 400*time.Millisecond)
	b := ChurnPlan(42, 50, 1.5, 10*time.Second, 400*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments produced different plans")
	}
	if len(a.Actions) == 0 {
		t.Fatal("rate 1.5/s over 10s produced no crashes")
	}
	c := ChurnPlan(43, 50, 1.5, 10*time.Second, 400*time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestChurnPlanNeverCrashesDownNode(t *testing.T) {
	plan := ChurnPlan(7, 10, 5, 20*time.Second, 2*time.Second)
	downUntil := make([]sim.Time, 10)
	for i, a := range plan.Actions {
		if a.Kind != NodeCrash {
			t.Fatalf("action %d: unexpected kind %v", i, a.Kind)
		}
		if downUntil[a.Node] > a.At {
			t.Fatalf("action %d crashes node %d at %v while it is down until %v",
				i, a.Node, a.At, downUntil[a.Node])
		}
		if a.Downtime < sim.Time(time.Millisecond) {
			t.Fatalf("action %d has downtime %v below the 1ms floor", i, a.Downtime)
		}
		downUntil[a.Node] = a.At + a.Downtime
	}
}

func TestChurnPlanEdgeCases(t *testing.T) {
	if p := ChurnPlan(1, 10, 0, time.Second, time.Second); len(p.Actions) != 0 {
		t.Error("zero rate must yield an empty plan")
	}
	if p := ChurnPlan(1, 10, -1, time.Second, time.Second); len(p.Actions) != 0 {
		t.Error("negative rate must yield an empty plan")
	}
	if p := ChurnPlan(1, 0, 1, time.Second, time.Second); len(p.Actions) != 0 {
		t.Error("zero nodes must yield an empty plan")
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		act  Action
		ok   bool
	}{
		{"crash in range", Action{Kind: NodeCrash, Node: 4}, true},
		{"crash out of range", Action{Kind: NodeCrash, Node: 5}, false},
		{"restart in range", Action{Kind: NodeRestart, Node: 0}, true},
		{"flap ok", Action{Kind: LinkFlap, A: 0, B: 1}, true},
		{"flap self", Action{Kind: LinkFlap, A: 2, B: 2}, false},
		{"partition out of range", Action{Kind: Partition, A: 0, B: 9}, false},
		{"loss model without constructor", Action{Kind: SetLossModel}, false},
		{"generated link break", Action{Kind: LinkBreak}, false},
		{"generated sub swap", Action{Kind: SubSwap}, false},
		{"unknown kind", Action{Kind: Kind(99)}, false},
		{"negative time", Action{At: -1, Kind: NodeCrash, Node: 0}, false},
	}
	for _, c := range cases {
		p := &Plan{Actions: []Action{c.act}}
		err := p.Validate(5)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := NodeCrash; k <= SubSwap; k++ {
		if s := k.String(); strings.HasPrefix(s, "fault(") {
			t.Errorf("kind %d has no name: %q", uint8(k), s)
		}
	}
	if s := Kind(77).String(); s != "fault(77)" {
		t.Errorf("unknown kind rendered %q", s)
	}
}
