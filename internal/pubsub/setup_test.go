package pubsub

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// installOracle is the original O(N²·πmax) installer — BFS from every
// subscriber, then a table entry on every other node — kept verbatim
// as the differential oracle for the O(N·Π) down/up sweep, which must
// reproduce its direction rows entry-for-entry in order.
func installOracle(topo *topology.Tree, nodes []*Node, subs [][]ident.PatternID) {
	for i, n := range nodes {
		n.SetLocalInstant(subs[i])
	}
	parent := make([]ident.NodeID, topo.N())
	queue := make([]ident.NodeID, 0, topo.N())
	for s := range nodes {
		if len(subs[s]) == 0 {
			continue
		}
		for i := range parent {
			parent[i] = ident.None
		}
		start := ident.NodeID(s)
		parent[start] = start
		queue = append(queue[:0], start)
		for i := 0; i < len(queue); i++ {
			x := queue[i]
			for _, y := range topo.Neighbors(x) {
				if parent[y] == ident.None {
					parent[y] = x
					queue = append(queue, y)
				}
			}
		}
		for x := range nodes {
			if x == s || parent[x] == ident.None {
				continue
			}
			for _, p := range subs[s] {
				nodes[x].SetTableInstant(p, parent[x])
			}
		}
	}
}

func buildPlainNodes(topo *topology.Tree) []*Node {
	k := sim.New(1)
	ncfg := network.DefaultConfig()
	ncfg.LossRate = 0
	net := network.New(k, topo, ncfg, nil)
	nodes := make([]*Node, topo.N())
	for i := range nodes {
		id := ident.NodeID(i)
		nodes[i] = NewNode(id, k, net, topo.Neighbors(id), Config{})
	}
	return nodes
}

// TestInstallMatchesQuadraticOracle pins the sweep installer against
// the per-subscriber BFS reference: identical direction rows in
// identical insertion order for every (node, pattern), across tree
// shapes, universe sizes (straddling the spill-tier boundary), and
// subscription densities.
func TestInstallMatchesQuadraticOracle(t *testing.T) {
	for _, tc := range []struct {
		n, deg, numPat, perNode int
		seed                    int64
	}{
		{2, 2, 4, 1, 1},
		{9, 2, 8, 2, 2}, // line-ish: deep rows
		{25, 3, 70, 2, 3},
		{40, 4, 200, 3, 4}, // spill-tier universe
		{60, 6, 500, 5, 5}, // dense: rows overflow dirStride
		{33, 4, 129, 2, 6}, // boundary pattern ids 127/128/129 in play
		{17, 16, 12, 3, 7}, // star-ish hub rows
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		topo, err := topology.New(tc.n, tc.deg, rng)
		if err != nil {
			t.Fatal(err)
		}
		subs := make([][]ident.PatternID, tc.n)
		for i := range subs {
			seen := map[int]bool{}
			for len(subs[i]) < tc.perNode {
				p := rng.Intn(tc.numPat)
				if !seen[p] {
					seen[p] = true
					subs[i] = append(subs[i], ident.PatternID(p))
				}
			}
		}

		got := buildPlainNodes(topo)
		InstallStableSubscriptions(topo, got, subs)
		want := buildPlainNodes(topo)
		installOracle(topo, want, subs)

		for x := 0; x < tc.n; x++ {
			for p := 0; p < tc.numPat; p++ {
				pid := ident.PatternID(p)
				g, w := got[x].dirs(pid), want[x].dirs(pid)
				if len(g) != len(w) {
					t.Fatalf("case %+v: node %d pattern %d: rows %v vs oracle %v", tc, x, p, g, w)
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("case %+v: node %d pattern %d entry %d: %v vs oracle %v (order must match)", tc, x, p, i, g, w)
					}
				}
			}
			if !got[x].LocalPatternSet().Equal(want[x].LocalPatternSet()) {
				t.Fatalf("case %+v: node %d local sets differ", tc, x)
			}
		}
	}
}

// installSweepReference is the pattern-major sweep installer that
// InstallStableSubscriptions replaced, kept verbatim as the
// differential reference for the blocked, arena-backed one. On trees it
// equals installOracle; on cyclic overlays and forests its output is
// the specification: directions are ranked by the minima its down/up
// passes over the BFS forest produce, in its neighbor visiting order.
func installSweepReference(topo *topology.Tree, nodes []*Node, subs [][]ident.PatternID) {
	n := topo.N()
	if len(nodes) != n || len(subs) != n {
		panic("pubsub: nodes/subs length must match topology size")
	}
	for i, nd := range nodes {
		nd.SetLocalInstant(subs[i])
	}

	// Group subscribers by pattern; iterating i ascending keeps each
	// list in ascending node order, which the order-reproducing sweep
	// below relies on.
	byPat := make(map[ident.PatternID][]ident.NodeID)
	for i, ps := range subs {
		for _, p := range ps {
			byPat[p] = append(byPat[p], ident.NodeID(i))
		}
	}
	pats := make([]ident.PatternID, 0, len(byPat))
	for p := range byPat {
		pats = append(pats, p)
	}
	sort.Slice(pats, func(i, j int) bool { return pats[i] < pats[j] })

	// One BFS forest for the whole install: order[] visits parents
	// before children within each component, roots are the smallest
	// ids. Reused across every pattern.
	const inf = int32(1 << 30)
	parent := make([]int32, n)
	order := make([]ident.NodeID, 0, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	for r := 0; r < n; r++ {
		if parent[r] != -2 {
			continue
		}
		parent[r] = -1
		order = append(order, ident.NodeID(r))
		for i := len(order) - 1; i < len(order); i++ {
			x := order[i]
			for _, y := range topo.Neighbors(x) {
				if parent[y] == -2 {
					parent[y] = int32(x)
					order = append(order, y)
				}
			}
		}
	}

	minDown := make([]int32, n) // min subscriber id in subtree(x)
	minUp := make([]int32, n)   // min subscriber id outside subtree(x)
	type keyed struct {
		key int32
		dir ident.NodeID
	}
	row := make([]keyed, 0, 8)
	// Patterns that got a row at each node, in ascending order (the
	// pats loop ascends): folded into each node's tableSet in one bulk
	// build at the end, instead of one copy-on-write spill Add per
	// (node, pattern).
	pend := make([][]ident.PatternID, n)

	for _, p := range pats {
		ss := byPat[p]
		for i := range minDown {
			minDown[i] = inf
		}
		for _, s := range ss {
			minDown[s] = int32(s)
		}
		// Bottom-up: children precede parents in reverse BFS order.
		for i := len(order) - 1; i >= 0; i-- {
			x := order[i]
			if pa := parent[x]; pa >= 0 && minDown[x] < minDown[pa] {
				minDown[pa] = minDown[x]
			}
		}
		// Top-down: minUp[c] folds the parent's up value, the parent
		// itself, and every sibling subtree. With bounded degree the
		// two-smallest trick beats prefix/suffix arrays: track the two
		// smallest contributions among {up, parent-local, children};
		// excluding child c leaves the smallest, or the second
		// smallest when c held it.
		for _, x := range order {
			up := inf
			if pa := parent[x]; pa >= 0 {
				up = minUp[x]
			} else {
				minUp[x] = inf
			}
			best, second := up, inf
			if selfSub(ss, x) { // x itself is in every child's up-set
				if int32(x) < best {
					best, second = int32(x), best
				} else if int32(x) < second {
					second = int32(x)
				}
			}
			for _, y := range topo.Neighbors(x) {
				if int32(y) == parent[x] {
					continue
				}
				if d := minDown[y]; d < best {
					best, second = d, best
				} else if d < second {
					second = d
				}
			}
			for _, y := range topo.Neighbors(x) {
				if int32(y) == parent[x] {
					continue
				}
				if minDown[y] == best {
					minUp[y] = second
				} else {
					minUp[y] = best
				}
			}
		}
		// Emit rows in ascending-minimum order, matching the reference
		// subscriber sweep.
		for _, x := range order {
			row = row[:0]
			for _, y := range topo.Neighbors(x) {
				var k int32
				if int32(y) == parent[x] {
					k = minUp[x]
				} else {
					k = minDown[y]
				}
				if k < inf {
					row = append(row, keyed{k, y})
				}
			}
			if len(row) == 0 {
				continue
			}
			// Insertion sort: rows are at most maxDegree entries and
			// the interface indirection of sort.Slice shows up at 20M
			// rows.
			for i := 1; i < len(row); i++ {
				for j := i; j > 0 && row[j].key < row[j-1].key; j-- {
					row[j], row[j-1] = row[j-1], row[j]
				}
			}
			nd := nodes[x]
			for _, e := range row {
				nd.addDirRow(p, e.dir)
			}
			pend[x] = append(pend[x], p)
		}
	}
	for x, nd := range nodes {
		nd.installRows(pend[x])
	}
}

// selfSub reports whether x appears in the ascending subscriber list.
func selfSub(ss []ident.NodeID, x ident.NodeID) bool {
	i := sort.Search(len(ss), func(i int) bool { return ss[i] >= x })
	return i < len(ss) && ss[i] == x
}

// installRows is the reference installer's finalizer: rows were laid
// down via addDirRow for the strictly ascending pattern list ps; fold
// them into tableSet in one pass.
func (n *Node) installRows(ps []ident.PatternID) {
	n.tableSet = n.tableSet.Union(ident.PatternSetFromAscending(ps))
	n.invalidateKnown()
}

// randomSubs draws perNode distinct patterns per node from pats.
func randomSubs(rng *rand.Rand, n, perNode int, pats []ident.PatternID) [][]ident.PatternID {
	subs := make([][]ident.PatternID, n)
	for i := range subs {
		for _, j := range rng.Perm(len(pats))[:min(perNode, len(pats))] {
			subs[i] = append(subs[i], pats[j])
		}
		slices.Sort(subs[i])
	}
	return subs
}

// densePatterns returns the pattern ids 0..numPat-1.
func densePatterns(numPat int) []ident.PatternID {
	pats := make([]ident.PatternID, numPat)
	for i := range pats {
		pats[i] = ident.PatternID(i)
	}
	return pats
}

// requireSameTables fails unless every node of got holds exactly the
// subscription state of its counterpart in want: the same direction
// row, in the same order, for every pattern id up to maxPat (absent
// rows absent on both sides), and equal tableSet, KnownPatterns and
// local sets.
func requireSameTables(t *testing.T, got, want []*Node, maxPat ident.PatternID) {
	t.Helper()
	for x := range want {
		g, w := got[x], want[x]
		for p := ident.PatternID(0); p <= maxPat; p++ {
			gd, wd := g.dirs(p), w.dirs(p)
			if !slices.Equal(gd, wd) || (gd == nil) != (wd == nil) {
				t.Fatalf("node %d pattern %d: row %v, reference %v (order must match)", x, p, gd, wd)
			}
		}
		if !g.tableSet.Equal(w.tableSet) {
			t.Fatalf("node %d: tableSet %v, reference %v", x, g.tableSet.AppendTo(nil), w.tableSet.AppendTo(nil))
		}
		if !slices.Equal(g.KnownPatterns(), w.KnownPatterns()) {
			t.Fatalf("node %d: KnownPatterns %v, reference %v", x, g.KnownPatterns(), w.KnownPatterns())
		}
		if !slices.Equal(g.LocalPatterns(), w.LocalPatterns()) || !g.LocalPatternSet().Equal(w.LocalPatternSet()) {
			t.Fatalf("node %d: local patterns %v, reference %v", x, g.LocalPatterns(), w.LocalPatterns())
		}
	}
}

// TestInstallMatchesSweepReference pins the blocked installer against
// the sweep it replaced, entry for entry, where the quadratic oracle
// does not reach: cyclic overlays and forests (where the sweep's
// output is the specification), hub rows wider than dirStride, pattern
// counts on both sides of a block edge and of the 128-pattern inline
// PatternSet tier, sparse pattern ids, and sizes large enough for the
// parallel phase.
func TestInstallMatchesSweepReference(t *testing.T) {
	const B = installBlock
	type tcase struct {
		name            string
		topo            func(rng *rand.Rand) (*topology.Tree, error)
		numPat, perNode int
		sparse          bool // pattern ids 3i+1 instead of i
	}
	overlay := func(kind topology.Kind, n, deg int) func(*rand.Rand) (*topology.Tree, error) {
		return func(rng *rand.Rand) (*topology.Tree, error) { return topology.NewOverlay(kind, n, deg, rng) }
	}
	forest := func(n, deg, cuts int) func(*rand.Rand) (*topology.Tree, error) {
		return func(rng *rand.Rand) (*topology.Tree, error) {
			tree, err := topology.New(n, deg, rng)
			if err != nil {
				return nil, err
			}
			links := tree.Links()
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			return topology.NewUnchecked(topology.KindTree, n, deg, links[cuts:])
		}
	}
	star := func(n int) func(*rand.Rand) (*topology.Tree, error) {
		return func(*rand.Rand) (*topology.Tree, error) { return topology.NewStar(n), nil }
	}
	cases := []tcase{
		{"tree/one-pattern", overlay(topology.KindTree, 50, 4), 1, 1, false},
		{"tree/B-1", overlay(topology.KindTree, 120, 4), B - 1, 2, false},
		{"tree/B", overlay(topology.KindTree, 120, 4), B, 2, false},
		{"tree/B+1", overlay(topology.KindTree, 120, 3), B + 1, 2, false},
		{"tree/2B+3", overlay(topology.KindTree, 200, 4), 2*B + 3, 3, false},
		{"tree/tier-127", overlay(topology.KindTree, 150, 4), 127, 3, false},
		{"tree/tier-128", overlay(topology.KindTree, 150, 4), 128, 3, false},
		{"tree/tier-129", overlay(topology.KindTree, 150, 4), 129, 3, false},
		{"tree/sparse-ids", overlay(topology.KindTree, 150, 4), 2*B + 3, 2, true},
		{"tree/few-subscribers", overlay(topology.KindTree, 40, 4), 300, 1, false},
		{"tree/parallel", overlay(topology.KindTree, 2000, 4), 300, 5, false},
		{"scale-free", overlay(topology.KindScaleFree, 300, 4), 2*B + 3, 3, false},
		{"scale-free/hubs", overlay(topology.KindScaleFree, 400, 12), 150, 4, false},
		{"scale-free/parallel", overlay(topology.KindScaleFree, 2000, 6), 200, 4, true},
		{"small-world", overlay(topology.KindSmallWorld, 300, 4), 2*B + 3, 3, false},
		{"small-world/wide", overlay(topology.KindSmallWorld, 1500, 8), 190, 3, false},
		{"forest", forest(400, 4, 25), 129, 2, false},
		{"forest/shattered", forest(200, 3, 150), B + 1, 1, false},
		{"star", star(120), 2*B + 3, 2, false},
		{"star/dense", star(40), 200, 30, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			topo, err := tc.topo(rng)
			if err != nil {
				t.Fatal(err)
			}
			pats := densePatterns(tc.numPat)
			if tc.sparse {
				for j := range pats {
					pats[j] = 3*pats[j] + 1
				}
			}
			subs := randomSubs(rng, topo.N(), tc.perNode, pats)

			got := buildPlainNodes(topo)
			InstallStableSubscriptions(topo, got, subs)
			want := buildPlainNodes(topo)
			installSweepReference(topo, want, subs)
			requireSameTables(t, got, want, pats[len(pats)-1]+ident.PatternSetCap)
		})
	}
}

// TestInstallIndependentOfWorkerCount: blocks write disjoint cells and
// share no mutable state, so the raw direction cells — not just what
// dirs reads back — are the same on one goroutine and on four.
func TestInstallIndependentOfWorkerCount(t *testing.T) {
	for _, kind := range topology.Kinds() {
		rng := rand.New(rand.NewSource(int64(kind) + 40))
		topo, err := topology.NewOverlay(kind, 1200, 9, rng)
		if err != nil {
			t.Fatal(err)
		}
		pats := densePatterns(260)
		subs := randomSubs(rng, topo.N(), 4, pats)
		if topo.N()*len(pats) < installParallelMin {
			t.Fatal("case too small to run the blocks in parallel")
		}
		one, four := buildPlainNodes(topo), buildPlainNodes(topo)
		installStable(topo, one, subs, 1)
		installStable(topo, four, subs, 4)
		requireSameTables(t, four, one, pats[len(pats)-1])
		for x := range one {
			a, b := one[x], four[x]
			if !slices.Equal(a.cells, b.cells) {
				t.Fatalf("%v: node %d: raw cells differ between 1 and 4 workers", kind, x)
			}
			if len(a.dirOver) != len(b.dirOver) {
				t.Fatalf("%v: node %d: %d spilled rows with 1 worker, %d with 4", kind, x, len(a.dirOver), len(b.dirOver))
			}
		}
	}
}

// tableSnapshot copies what dirs reads back for every pattern.
func tableSnapshot(n *Node, maxPat ident.PatternID) [][]ident.NodeID {
	out := make([][]ident.NodeID, maxPat+1)
	for p := range out {
		out[p] = slices.Clone(n.dirs(ident.PatternID(p)))
	}
	return out
}

// TestInstallArenaRegionsAreIsolated: after the install every node's
// table is a capacity-limited region of one shared arena. A row for a
// pattern the node never had one for is written in place when the
// pattern is inside the installed universe and moves the node's table
// out of the arena when it is beyond it; either way the neighbors'
// regions stay untouched.
func TestInstallArenaRegionsAreIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	topo, err := topology.New(30, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	const numPat = 40
	subs := randomSubs(rng, topo.N(), 2, densePatterns(numPat))
	// Pattern 7 is subscribed at node 10 only: node 10 has no row for it.
	for i := range subs {
		subs[i] = slices.DeleteFunc(subs[i], func(p ident.PatternID) bool { return p == 7 })
	}
	subs[10] = append(subs[10], 7)
	slices.Sort(subs[10])
	nodes := buildPlainNodes(topo)
	InstallStableSubscriptions(topo, nodes, subs)

	for _, tc := range []struct {
		name string
		x    int
		p    ident.PatternID
	}{
		{"unrowed pattern inside the universe", 10, 7},
		{"pattern beyond the index", 20, 5000},
	} {
		const maxPat = 5001
		before := make([][][]ident.NodeID, len(nodes))
		for i, nd := range nodes {
			before[i] = tableSnapshot(nd, maxPat)
		}
		x := nodes[tc.x]
		if x.dirs(tc.p) != nil {
			t.Fatalf("%s: node %d already has a row for pattern %d", tc.name, tc.x, tc.p)
		}
		arena := &x.cells[0]
		if cap(x.cells) != len(x.cells) {
			t.Fatalf("%s: node %d's table is not capacity-limited to its region", tc.name, tc.x)
		}
		beyond := int(tc.p) >= len(x.cells)
		nb := x.Neighbors()[0]
		x.addDir(tc.p, nb)
		if moved := &x.cells[0] != arena; moved != beyond {
			t.Fatalf("%s: node %d's table left the arena: %v, want %v", tc.name, tc.x, moved, beyond)
		}
		before[tc.x][tc.p] = []ident.NodeID{nb}
		for i, nd := range nodes {
			for p, want := range before[i] {
				if got := nd.dirs(ident.PatternID(p)); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d pattern %d: row %v after node %d grew, was %v", tc.name, i, p, got, tc.x, want)
				}
			}
		}
		if !x.tableSet.Has(tc.p) {
			t.Fatalf("%s: tableSet misses pattern %d", tc.name, tc.p)
		}
	}
}
