package topology

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func TestNewProducesTree(t *testing.T) {
	tests := []struct {
		name      string
		n, degree int
	}{
		{"single", 1, 4},
		{"pair", 2, 4},
		{"paper default", 100, 4},
		{"large", 200, 4},
		{"binary", 50, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := New(tt.n, tt.degree, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("New(%d, %d): %v", tt.n, tt.degree, err)
			}
			if !tr.IsTree() {
				t.Fatal("result is not a tree")
			}
			if tr.NumLinks() != tt.n-1 {
				t.Fatalf("links = %d, want %d", tr.NumLinks(), tt.n-1)
			}
			for i := 0; i < tt.n; i++ {
				if d := tr.Degree(ident.NodeID(i)); d > tt.degree {
					t.Fatalf("node %d degree %d exceeds bound %d", i, d, tt.degree)
				}
			}
		})
	}
}

func TestNewRejectsImpossibleConfigs(t *testing.T) {
	if _, err := New(0, 4, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("New(0, 4) succeeded")
	}
	if _, err := New(10, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("New(10, 1) succeeded, cannot connect 10 nodes with degree 1")
	}
}

func TestMeanPairwiseDistanceMatchesPaperAnchor(t *testing.T) {
	// The paper's baseline delivery (≈55% at ε=0.1, ≈75% at ε=0.05)
	// implies a mean publisher→subscriber distance near 5.6 hops at
	// N=100, maxDegree=4. Our generator should land in that band.
	var sum float64
	const runs = 20
	for seed := int64(0); seed < runs; seed++ {
		tr, err := New(100, 4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sum += tr.MeanPairwiseDistance()
	}
	mean := sum / runs
	if mean < 4.5 || mean > 7.0 {
		t.Fatalf("mean pairwise distance %.2f outside calibration band [4.5, 7.0]", mean)
	}
}

func TestLineAndStar(t *testing.T) {
	line := NewLine(5)
	if !line.IsTree() {
		t.Fatal("line is not a tree")
	}
	if d := line.Dist(0, 4); d != 4 {
		t.Fatalf("line Dist(0,4) = %d, want 4", d)
	}
	star := NewStar(6)
	if !star.IsTree() {
		t.Fatal("star is not a tree")
	}
	if d := star.Dist(1, 5); d != 2 {
		t.Fatalf("star Dist(1,5) = %d, want 2", d)
	}
	if d := star.Degree(0); d != 5 {
		t.Fatalf("star center degree = %d, want 5", d)
	}
}

func TestRemoveLinkSplitsComponents(t *testing.T) {
	line := NewLine(6)
	if err := line.RemoveLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if line.Connected() {
		t.Fatal("still connected after removing a tree link")
	}
	if got := len(line.Component(0)); got != 3 {
		t.Fatalf("component of 0 has %d nodes, want 3", got)
	}
	if got := len(line.Component(5)); got != 3 {
		t.Fatalf("component of 5 has %d nodes, want 3", got)
	}
	if line.Dist(0, 5) != -1 {
		t.Fatal("Dist across components should be -1")
	}
	if err := line.RemoveLink(2, 3); !errors.Is(err, ErrNoSuchLink) {
		t.Fatalf("second removal err = %v, want ErrNoSuchLink", err)
	}
}

func TestAddLinkValidation(t *testing.T) {
	line := NewLine(4) // maxDegree 2
	if err := line.AddLink(1, 1); !errors.Is(err, ErrSameEndpoint) {
		t.Fatalf("self link err = %v, want ErrSameEndpoint", err)
	}
	if err := line.AddLink(0, 1); !errors.Is(err, ErrLinkExists) {
		t.Fatalf("duplicate link err = %v, want ErrLinkExists", err)
	}
	if err := line.AddLink(0, 3); !errors.Is(err, ErrWouldCycle) {
		t.Fatalf("cycle link err = %v, want ErrWouldCycle", err)
	}
	if err := line.RemoveLink(1, 2); err != nil {
		t.Fatal(err)
	}
	// Node 1 now has degree 1, but node 0 sits inside the other
	// component... 0 and 1 are in the same component, so joining 2's
	// component through node 1 works, through full node fails.
	if err := line.AddLink(1, 2); err != nil {
		t.Fatalf("valid rejoin failed: %v", err)
	}
	if !line.IsTree() {
		t.Fatal("not a tree after rejoin")
	}
}

func TestAddLinkDegreeLimit(t *testing.T) {
	line := NewLine(4) // 0-1-2-3, maxDegree 2; nodes 1 and 2 are full
	if err := line.RemoveLink(0, 1); err != nil {
		t.Fatal(err)
	}
	// Node 2 is still at its degree limit: attaching 0 to it must fail.
	if err := line.AddLink(0, 2); !errors.Is(err, ErrDegreeFull) {
		t.Fatalf("AddLink to full node err = %v, want ErrDegreeFull", err)
	}
	// Node 3 has a free slot: attaching there succeeds.
	if err := line.AddLink(0, 3); err != nil {
		t.Fatal(err)
	}
	if !line.IsTree() {
		t.Fatal("not a tree after degree-respecting rejoin")
	}
}

func TestReplacementLinkReconnects(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tr, err := New(30, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		broken := tr.RandomLink(rng)
		if err := tr.RemoveLink(broken.A, broken.B); err != nil {
			t.Fatal(err)
		}
		repl, err := tr.ReplacementLink(broken, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.AddLink(repl.A, repl.B); err != nil {
			t.Fatalf("trial %d: AddLink(%v): %v", trial, repl, err)
		}
		if !tr.IsTree() {
			t.Fatalf("trial %d: not a tree after reconfiguration", trial)
		}
	}
}

// TestReplacementLinkNothingToRepair pins the sentinels a repairer
// uses to tell "outage over" from "retry later".
func TestReplacementLinkNothingToRepair(t *testing.T) {
	line := NewLine(4) // 0-1-2-3, maxDegree 2
	broken := Link{A: 1, B: 2}
	if _, err := line.ReplacementLink(broken, rand.New(rand.NewSource(1))); !errors.Is(err, ErrLinkPresent) {
		t.Fatalf("link still present: err = %v, want ErrLinkPresent", err)
	}
	if err := line.RemoveLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := line.AddLink(0, 3); err != nil { // another path joins 1 and 2
		t.Fatal(err)
	}
	if _, err := line.ReplacementLink(broken, rand.New(rand.NewSource(1))); !errors.Is(err, ErrReconnected) {
		t.Fatalf("sides rejoined: err = %v, want ErrReconnected", err)
	}
}

func TestLinkIncarnation(t *testing.T) {
	line := NewLine(3)
	if got := line.LinkIncarnation(0, 1); got != 1 {
		t.Fatalf("initial incarnation = %d, want 1", got)
	}
	if got := line.LinkIncarnation(0, 2); got != 0 {
		t.Fatalf("never-created link incarnation = %d, want 0", got)
	}
	if err := line.RemoveLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := line.LinkIncarnation(0, 1); got != 1 {
		t.Fatalf("incarnation after removal = %d, want 1 (unchanged)", got)
	}
	if err := line.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := line.LinkIncarnation(0, 1); got != 2 {
		t.Fatalf("incarnation after re-add = %d, want 2", got)
	}
	// Endpoint order does not matter.
	if line.LinkIncarnation(1, 0) != line.LinkIncarnation(0, 1) {
		t.Fatal("incarnation not symmetric")
	}
}

// TestLinkSlotIncarnations pins the per-slot copies of the incarnation
// counts through every kind of mutation: removing a middle neighbour
// (later slots, with different counts, shift down), re-adding a removed
// link, RemoveNode and ReconnectAround. After each step LinkSlot must
// agree with NeighborSlot and LinkIncarnation on every present link,
// from both ends; a removed link keeps reporting its last count and a
// never-created one 0.
func TestLinkSlotIncarnations(t *testing.T) {
	tr := NewStar(6) // 0's slots: 1, 2, 3, 4, 5
	consistent := func(step string) {
		t.Helper()
		for a := 0; a < tr.N(); a++ {
			for b := 0; b < tr.N(); b++ {
				x, y := ident.NodeID(a), ident.NodeID(b)
				slot, inc := tr.LinkSlot(x, y)
				if slot != tr.NeighborSlot(x, y) {
					t.Fatalf("%s: LinkSlot(%v, %v) slot %d, NeighborSlot %d", step, x, y, slot, tr.NeighborSlot(x, y))
				}
				want := uint64(0)
				if slot >= 0 {
					want = tr.LinkIncarnation(x, y)
				}
				if inc != want {
					t.Fatalf("%s: LinkSlot(%v, %v) incarnation %d, want %d", step, x, y, inc, want)
				}
			}
		}
	}
	expect := func(step string, a, b ident.NodeID, slot int, inc, last uint64) {
		t.Helper()
		if s, i := tr.LinkSlot(a, b); s != slot || i != inc {
			t.Fatalf("%s: LinkSlot(%v, %v) = %d, %d, want %d, %d", step, a, b, s, i, slot, inc)
		}
		if got := tr.LinkIncarnation(a, b); got != last {
			t.Fatalf("%s: LinkIncarnation(%v, %v) = %d, want %d", step, a, b, got, last)
		}
	}
	consistent("star")
	expect("star", 0, 4, 3, 1, 1)
	expect("star", 1, 2, -1, 0, 0) // never created

	// Re-create 0-3: 0's slots become 1, 2, 4, 5, 3 with counts 1, 1, 1, 1, 2.
	if err := tr.RemoveLink(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddLink(0, 3); err != nil {
		t.Fatal(err)
	}
	consistent("re-create")
	expect("re-create", 0, 3, 4, 2, 2)
	expect("re-create", 3, 0, 0, 2, 2)

	if err := tr.RemoveLink(0, 2); err != nil {
		t.Fatal(err)
	}
	consistent("remove middle")
	expect("remove middle", 0, 2, -1, 0, 1)
	expect("remove middle", 0, 4, 1, 1, 1) // shifted down from slot 2
	expect("remove middle", 0, 3, 3, 2, 2) // shifted down from slot 4

	if err := tr.AddLink(2, 0); err != nil {
		t.Fatal(err)
	}
	consistent("re-add")
	expect("re-add", 0, 2, 4, 2, 2)
	expect("re-add", 2, 0, 0, 2, 2)
	expect("re-add", 0, 3, 3, 2, 2)

	removed := tr.RemoveNode(0)
	if len(removed) != 5 {
		t.Fatalf("RemoveNode removed %v", removed)
	}
	consistent("remove node")
	expect("remove node", 0, 2, -1, 0, 2)
	expect("remove node", 0, 3, -1, 0, 2)
	expect("remove node", 5, 0, -1, 0, 1)

	added, err := tr.ReconnectAround([]ident.NodeID{1, 2, 3, 4, 5}, func(v ident.NodeID) bool { return v == 0 }, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	consistent("reconnect")
	for _, l := range added {
		if s, inc := tr.LinkSlot(l.A, l.B); s < 0 || inc != 1 {
			t.Fatalf("reconnect: new link %v has slot %d, incarnation %d", l, s, inc)
		}
	}
	if err := tr.AddLink(0, 2); err != nil {
		t.Fatal(err)
	}
	consistent("third incarnation")
	expect("third incarnation", 0, 2, 0, 3, 3)
}

func TestLinkOtherAndCanon(t *testing.T) {
	l := Link{A: 5, B: 2}.Canon()
	if l.A != 2 || l.B != 5 {
		t.Fatalf("Canon = %v, want {2 5}", l)
	}
	if l.Other(2) != 5 || l.Other(5) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint did not panic")
		}
	}()
	l.Other(9)
}

func TestDistCacheInvalidatedByMutation(t *testing.T) {
	line := NewLine(4) // 0-1-2-3
	if d := line.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3) = %d, want 3", d)
	}
	if err := line.RemoveLink(1, 2); err != nil {
		t.Fatal(err)
	}
	// 0 (degree 1) and 2 (degree 1) sit in different components: legal.
	if err := line.AddLink(0, 2); err != nil {
		t.Fatal(err)
	}
	if d := line.Dist(0, 3); d != 2 {
		t.Fatalf("Dist(0,3) after rewire = %d, want 2 (0-2-3)", d)
	}
	if d := line.Dist(1, 3); d != 3 {
		t.Fatalf("Dist(1,3) after rewire = %d, want 3 (1-0-2-3)", d)
	}
}

// TestReconfigurationSequenceInvariants is the property test demanded
// by DESIGN.md: an arbitrary sequence of break-and-replace operations
// keeps the topology a degree-bounded spanning tree.
func TestReconfigurationSequenceInvariants(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(90)
		tr, err := New(n, 4, rng)
		if err != nil {
			return false
		}
		for i := 0; i < int(steps%64)+1; i++ {
			broken := tr.RandomLink(rng)
			if err := tr.RemoveLink(broken.A, broken.B); err != nil {
				return false
			}
			repl, err := tr.ReplacementLink(broken, rng)
			if err != nil {
				return false
			}
			if err := tr.AddLink(repl.A, repl.B); err != nil {
				return false
			}
			if !tr.IsTree() {
				return false
			}
			for v := 0; v < n; v++ {
				if tr.Degree(ident.NodeID(v)) > 4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewTopology(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(100, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistAfterMutation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr, err := New(200, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broken := tr.RandomLink(rng)
		if err := tr.RemoveLink(broken.A, broken.B); err != nil {
			b.Fatal(err)
		}
		repl, err := tr.ReplacementLink(broken, rng)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.AddLink(repl.A, repl.B); err != nil {
			b.Fatal(err)
		}
		_ = tr.Dist(0, ident.NodeID(i%200))
	}
}

func TestNeighborSlot(t *testing.T) {
	tr := NewStar(4) // 0 - {1, 2, 3}
	for i, want := range []ident.NodeID{1, 2, 3} {
		if got := tr.NeighborSlot(0, want); got != i {
			t.Fatalf("NeighborSlot(0, %v) = %d, want %d", want, got, i)
		}
		if got := tr.NeighborSlot(want, 0); got != 0 {
			t.Fatalf("NeighborSlot(%v, 0) = %d, want 0", want, got)
		}
	}
	if got := tr.NeighborSlot(1, 2); got != -1 {
		t.Fatalf("NeighborSlot(1, 2) = %d, want -1", got)
	}
	// RemoveLink compacts later slots down by one.
	if err := tr.RemoveLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.NeighborSlot(0, 2); got != 0 {
		t.Fatalf("NeighborSlot(0, 2) after removal = %d, want 0", got)
	}
	if got := tr.NeighborSlot(0, 1); got != -1 {
		t.Fatalf("NeighborSlot(0, 1) after removal = %d, want -1", got)
	}
}
