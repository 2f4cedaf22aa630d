package pubsub

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/topology"
)

// installBlock is how many patterns one sweep block carries (one bit
// of the own-subscription mask each): neighbor, parent and BFS-order
// lookups are paid once per (node, block) instead of once per (node,
// pattern), and a node's rows for a block are written back to back.
const installBlock = 32

// installParallelMin is the N·Π cell count below which the blocks run
// on a single worker: a paper-sized install (100 × 70) finishes before
// a second worker's scratch is allocated.
const installParallelMin = 1 << 18

// InstallStableSubscriptions lays down local subscriptions and the
// corresponding routing tables on every node instantaneously, without
// exchanging messages. The paper's simulations run with stable
// subscription information (Sec. IV-A): subscriptions exist before the
// measurement starts, so their propagation is not simulated.
//
// subs[i] lists the patterns node i subscribes to. For every subscriber
// s of pattern p, every other node x gets a table entry (p → neighbor
// of x on the path toward s), which is exactly the state subscription
// forwarding converges to on a tree. The nodes must be new: the
// installer lays direction tables down, it does not merge into rows a
// node already holds.
//
// The reference formulation — BFS from every subscriber, then touch
// every node — is O(N²·πmax). This implementation computes the same
// tables in O(N·Π) with a down/up sweep: neighbor y of x is a direction
// for p iff y's side of the tree (with x removed) contains a subscriber
// of p. Row insertion order is reproduced exactly: the reference
// appends directions while sweeping subscribers in ascending node
// order, so a direction's rank at x is the minimum subscriber id in its
// side — the sweep computes those minima and emits in that order,
// keeping every fixed-seed run bit-identical.
//
// The sweep is node-major over blocks of installBlock patterns, and the
// direction cells it fills are carved out of one run-wide array sized
// up front (see carveArena), so the install costs what it writes rather
// than what per-node growth reallocates. Patterns are independent lanes
// of the sweep and blocks write disjoint cells, so blocks run on up to
// GOMAXPROCS goroutines; the tables are the same for every worker
// count.
func InstallStableSubscriptions(topo *topology.Tree, nodes []*Node, subs [][]ident.PatternID) {
	installStable(topo, nodes, subs, runtime.GOMAXPROCS(0))
}

// installStable is InstallStableSubscriptions on at most maxWorkers
// goroutines.
func installStable(topo *topology.Tree, nodes []*Node, subs [][]ident.PatternID, maxWorkers int) {
	n := topo.N()
	if len(nodes) != n || len(subs) != n {
		panic("pubsub: nodes/subs length must match topology size")
	}
	for i, nd := range nodes {
		if len(nd.cells) != 0 {
			panic("pubsub: stable install on a node that already holds direction rows")
		}
		nd.SetLocalInstant(subs[i])
	}
	in := installer{topo: topo, nodes: nodes}
	in.groupByPattern(subs)
	if len(in.pats) == 0 {
		return
	}
	in.bfsForest()
	in.carveArena()

	blocks := (len(in.pats) + installBlock - 1) / installBlock
	workers := min(maxWorkers, blocks)
	if n*len(in.pats) < installParallelMin {
		workers = 1
	}
	over := make([][]overRow, blocks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newInstallScratch(n)
			for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
				over[b] = in.sweepBlock(b, s)
			}
		}()
	}
	wg.Wait()

	// Rows a cell cannot encode live in the per-node spill map; maps are
	// not written from the parallel phase.
	for _, rows := range over {
		for _, r := range rows {
			nd := nodes[r.node]
			if nd.dirOver == nil {
				nd.dirOver = make(map[ident.PatternID][]ident.NodeID)
			}
			nd.dirOver[r.pattern] = r.dirs
		}
	}
	// One ascending bulk build of tableSet per node, instead of one
	// copy-on-write spill Add per (node, pattern).
	have := make([]ident.PatternID, 0, len(in.pats))
	for _, nd := range nodes {
		have = have[:0]
		for _, p := range in.pats {
			if nd.cells[p] != 0 {
				have = append(have, p)
			}
		}
		nd.tableSet = ident.PatternSetFromAscending(have)
		nd.invalidateKnown()
	}
}

// installer is the state one stable install shares across its blocks;
// everything here is read-only once the sweep starts.
type installer struct {
	topo  *topology.Tree
	nodes []*Node

	// Subscribers grouped by pattern: pats lists the subscribed
	// patterns ascending, and the subscribers of pats[r] are
	// members[start[r]:start[r+1]] in ascending node order.
	pats    []ident.PatternID
	start   []int32
	members []ident.NodeID

	// BFS forest of the overlay: order visits parents before children
	// within each component (roots are the smallest ids); parent is -1
	// at roots.
	order  []ident.NodeID
	parent []int32
}

// groupByPattern counting-sorts the subscriptions by pattern. Sweeping
// nodes in ascending order keeps each pattern's subscriber list
// ascending, which the order-reproducing sweep relies on.
func (in *installer) groupByPattern(subs [][]ident.PatternID) {
	maxPat, total := ident.PatternID(-1), 0
	for _, ps := range subs {
		total += len(ps)
		for _, p := range ps {
			maxPat = max(maxPat, p)
		}
	}
	count := make([]int32, maxPat+1)
	for _, ps := range subs {
		for _, p := range ps {
			count[p]++
		}
	}
	// count[p] becomes the fill cursor of p's member range.
	at := int32(0)
	for p, c := range count {
		if c == 0 {
			continue
		}
		in.pats = append(in.pats, ident.PatternID(p))
		in.start = append(in.start, at)
		count[p] = at
		at += c
	}
	in.start = append(in.start, at)
	in.members = make([]ident.NodeID, total)
	for i, ps := range subs {
		for _, p := range ps {
			in.members[count[p]] = ident.NodeID(i)
			count[p]++
		}
	}
}

func (in *installer) bfsForest() {
	n := in.topo.N()
	in.parent = make([]int32, n)
	in.order = make([]ident.NodeID, 0, n)
	for i := range in.parent {
		in.parent[i] = -2 // unvisited
	}
	for r := 0; r < n; r++ {
		if in.parent[r] != -2 {
			continue
		}
		in.parent[r] = -1
		in.order = append(in.order, ident.NodeID(r))
		for i := len(in.order) - 1; i < len(in.order); i++ {
			x := in.order[i]
			for _, y := range in.topo.Neighbors(x) {
				if in.parent[y] == -2 {
					in.parent[y] = int32(x)
					in.order = append(in.order, y)
				}
			}
		}
	}
}

// carveArena gives every node a direction table with one cell per
// pattern id up to the largest subscribed one, cut from one run-wide
// pointer-free array. Each node's slice is capacity-limited to its own
// region, so a later growth (a pattern beyond the installed universe)
// reallocates that node's table out of the arena instead of running
// into its neighbor's. The arena has no owner of its own: it lives as
// long as some node still holds a slice of it.
func (in *installer) carveArena() {
	// The table is as wide as addDirRow would have grown it for the
	// largest pattern.
	width := (int(in.pats[len(in.pats)-1]) + ident.PatternSetCap) &^ (ident.PatternSetCap - 1)
	cells := make([]uint16, len(in.nodes)*width)
	for x, nd := range in.nodes {
		nd.cells = cells[x*width : (x+1)*width : (x+1)*width]
	}
}

// installScratch is one worker's sweep state, reused across its blocks.
type installScratch struct {
	// minDown[x*installBlock+j] is the minimum subscriber id of the
	// block's j-th pattern in subtree(x); minUp the minimum outside it.
	minDown, minUp []int32
	// self has bit j set when the node itself subscribes to pattern j.
	self  []uint32
	keys  [][]int32 // per neighbor of the node being emitted: its key lanes
	slots []int     // per neighbor of the node being emitted: its adjacency slot
	row   []keyedDir
}

// keyedDir is a direction with its rank key, the minimum subscriber id
// on that side, and its index among the emitting node's neighbors.
type keyedDir struct {
	key int32
	nb  int
}

// overRow is a direction row no cell can encode, bound for dirOver.
type overRow struct {
	node    ident.NodeID
	pattern ident.PatternID
	dirs    []ident.NodeID
}

func newInstallScratch(n int) *installScratch {
	return &installScratch{
		minDown: make([]int32, n*installBlock),
		minUp:   make([]int32, n*installBlock),
		self:    make([]uint32, n),
	}
}

// noSub is the "no subscriber on that side" minimum.
const noSub = int32(1 << 30)

// sweepBlock fills every node's cells for the patterns of rank
// [b*installBlock, (b+1)*installBlock) and returns the rows no cell can
// encode. It writes only the cells of the block's patterns.
func (in *installer) sweepBlock(b int, s *installScratch) []overRow {
	const B = installBlock
	r0 := b * B
	pats := in.pats[r0:min(r0+B, len(in.pats))]
	minDown, minUp := s.minDown, s.minUp

	for i := range minDown {
		minDown[i] = noSub
	}
	clear(s.self)
	for j := range pats {
		for _, sub := range in.members[in.start[r0+j]:in.start[r0+j+1]] {
			minDown[int(sub)*B+j] = int32(sub)
			s.self[sub] |= 1 << j
		}
	}

	// Bottom-up: children precede parents in reverse BFS order.
	for i := len(in.order) - 1; i >= 0; i-- {
		x := in.order[i]
		pa := in.parent[x]
		if pa < 0 {
			continue
		}
		dx, dp := minDown[int(x)*B:][:B], minDown[int(pa)*B:][:B]
		for j, d := range dx {
			if d < dp[j] {
				dp[j] = d
			}
		}
	}

	// Top-down: minUp[c] folds the parent's up value, the parent
	// itself, and every sibling subtree. With bounded degree the
	// two-smallest trick beats prefix/suffix arrays: track the two
	// smallest contributions among {up, parent-local, children};
	// excluding child c leaves the smallest, or the second smallest
	// when c held it.
	var best, second [B]int32
	for _, x := range in.order {
		pa := in.parent[x]
		ux := minUp[int(x)*B:][:B]
		if pa < 0 {
			for j := range ux {
				ux[j] = noSub
			}
		}
		copy(best[:], ux)
		for j := range second {
			second[j] = noSub
		}
		for m := s.self[x]; m != 0; m &= m - 1 { // x itself is in every child's up-set
			j := bits.TrailingZeros32(m)
			if int32(x) < best[j] {
				best[j], second[j] = int32(x), best[j]
			} else if int32(x) < second[j] {
				second[j] = int32(x)
			}
		}
		nbrs := in.topo.Neighbors(x)
		for _, y := range nbrs {
			if int32(y) == pa {
				continue
			}
			for j, d := range minDown[int(y)*B:][:B] {
				if d < best[j] {
					best[j], second[j] = d, best[j]
				} else if d < second[j] {
					second[j] = d
				}
			}
		}
		for _, y := range nbrs {
			if int32(y) == pa {
				continue
			}
			dy, uy := minDown[int(y)*B:][:B], minUp[int(y)*B:][:B]
			for j, d := range dy {
				if d == best[j] {
					uy[j] = second[j]
				} else {
					uy[j] = best[j]
				}
			}
		}
	}

	// Emit rows in ascending-minimum order, matching the reference
	// subscriber sweep, as cells of the node's adjacency slots; a row
	// no cell can encode is returned for dirOver.
	var over []overRow
	keys, slots, row := s.keys, s.slots, s.row
	for x, nd := range in.nodes {
		nbrs := in.topo.Neighbors(ident.NodeID(x))
		keys, slots = keys[:0], slots[:0]
		for _, y := range nbrs {
			if int32(y) == in.parent[x] {
				keys = append(keys, minUp[x*B:][:B])
			} else {
				keys = append(keys, minDown[int(y)*B:][:B])
			}
			slots = append(slots, nd.slotOf(y))
		}
		for j, p := range pats {
			row = row[:0]
			for i, k := range keys {
				if k[j] < noSub {
					row = append(row, keyedDir{k[j], i})
				}
			}
			if len(row) == 0 {
				continue
			}
			// Insertion sort: rows are at most maxDegree entries and
			// the interface indirection of sort.Slice shows up at 20M
			// rows.
			for i := 1; i < len(row); i++ {
				for k := i; k > 0 && row[k].key < row[k-1].key; k-- {
					row[k], row[k-1] = row[k-1], row[k]
				}
			}
			c, fits := uint16(len(row)), len(row) <= dirStride
			for i, e := range row {
				slot := slots[e.nb]
				fits = fits && slot >= 0 && slot < dirStride
				c |= uint16(slot&3) << (cellLenBits + 2*i)
			}
			if fits {
				nd.cells[p] = c
				continue
			}
			dirs := make([]ident.NodeID, len(row))
			for i, e := range row {
				dirs[i] = nbrs[e.nb]
			}
			nd.cells[p] = dirSpill
			over = append(over, overRow{ident.NodeID(x), p, dirs})
		}
	}
	s.keys, s.slots, s.row = keys, slots, row
	return over
}
