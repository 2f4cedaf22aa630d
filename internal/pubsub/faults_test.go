package pubsub

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/topology"
)

// TestFaultCrashRejoinResync walks the full crash/rejoin cycle at the
// pubsub layer: a mid-line dispatcher crashes (state wiped, neighbors
// flush their routes, survivors heal around it), then rejoins at a new
// attach point and resyncs subscription state over the new link — its
// own local subscription propagates out, and the component's interests
// propagate back in.
func TestFaultCrashRejoinResync(t *testing.T) {
	// Line 0-1-2-3-4; subscribers: node 2 and node 4 on pattern 5.
	topo := topology.NewLine(5)
	r := newRig(t, topo, Config{})
	InstallStableSubscriptions(topo, r.nodes, [][]ident.PatternID{nil, nil, {5}, nil, {5}})

	// Crash node 2: links removed, survivors flush, state wiped.
	removed := topo.RemoveNode(2)
	if len(removed) != 2 {
		t.Fatalf("crash removed %d links, want 2", len(removed))
	}
	r.net.SetNodeDown(2, true)
	r.nodes[2].OnNodeDown()
	r.nodes[1].OnLinkDown(2)
	r.nodes[3].OnLinkDown(2)
	if got := len(r.nodes[2].Neighbors()); got != 0 {
		t.Fatalf("crashed node keeps %d neighbors", got)
	}
	if dirs := r.nodes[2].dirs(5); len(dirs) != 0 {
		t.Fatalf("crashed node keeps remote interest directions %v", dirs)
	}

	// Survivors heal: 1-3 bridges the gap.
	if err := topo.AddLink(1, 3); err != nil {
		t.Fatal(err)
	}
	r.nodes[1].OnLinkUp(3)
	r.nodes[3].OnLinkUp(1)
	r.run()

	// Traffic still reaches the surviving subscriber, not the corpse.
	r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()
	if got := len(r.deliveries[4]); got != 1 {
		t.Fatalf("surviving subscriber got %d deliveries, want 1", got)
	}
	if got := len(r.deliveries[2]); got != 0 {
		t.Fatalf("crashed subscriber got %d deliveries, want 0", got)
	}

	// Restart: rejoin at node 4 (the only free slot end) and resync.
	r.net.SetNodeDown(2, false)
	if err := topo.AddLink(2, 4); err != nil {
		t.Fatal(err)
	}
	r.nodes[2].OnNodeUp()
	r.nodes[2].OnLinkUp(4)
	r.nodes[4].OnLinkUp(2)
	r.run()

	// The rejoined node's local subscription was re-advertised...
	r.nodes[0].Publish(matching.Content{5}, 0)
	r.run()
	if got := len(r.deliveries[2]); got != 1 {
		t.Fatalf("rejoined subscriber got %d deliveries, want 1", got)
	}
	// ...and it relearned the component's interests over the new link.
	if dirs := r.nodes[2].dirs(5); len(dirs) != 1 || dirs[0] != 4 {
		t.Fatalf("rejoined node's interest directions for 5 = %v, want [4]", dirs)
	}
	// The old position no longer routes through the corpse's ex-links.
	for _, n := range []ident.NodeID{1, 3} {
		for _, d := range r.nodes[n].dirs(5) {
			if d == 2 {
				t.Fatalf("node %d still routes pattern 5 toward the crashed node's old link", n)
			}
		}
	}
}
