package pubsub

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// dirs returns a copy of p's direction row, nil when p has none.
func (n *Node) dirs(p ident.PatternID) []ident.NodeID {
	var buf DirBuf
	return slices.Clone(n.InterestDirections(&buf, p))
}

// arrayTable is the struct-of-arrays interest-direction table the
// direction cells replaced, kept as the differential oracle: dirIdx
// maps a pattern to a fixed-stride row of dirRows, dirLen holds each
// row's live prefix length or arrayOverMark, and rows wider than the
// stride spill into dirOver. Its rows name neighbors by NodeID, so it
// knows nothing of adjacency slots.
type arrayTable struct {
	dirIdx   []int32
	dirRows  []ident.NodeID
	dirLen   []uint16
	dirOver  map[ident.PatternID][]ident.NodeID
	tableSet ident.PatternSet
}

// arrayOverMark is the dirLen sentinel for a row that overflowed.
const arrayOverMark = ^uint16(0)

func (t *arrayTable) dirs(p ident.PatternID) []ident.NodeID {
	if p < 0 || int(p) >= len(t.dirIdx) {
		return nil
	}
	row := t.dirIdx[p]
	if row < 0 {
		return nil
	}
	l := t.dirLen[row]
	if l == arrayOverMark {
		return t.dirOver[p]
	}
	off := int(row) * dirStride
	return t.dirRows[off : off+int(l) : off+dirStride]
}

func (t *arrayTable) addDirRow(p ident.PatternID, nb ident.NodeID) {
	if int(p) >= len(t.dirIdx) {
		want := (int(p) + ident.PatternSetCap) &^ (ident.PatternSetCap - 1)
		idx := make([]int32, want)
		copy(idx, t.dirIdx)
		for i := len(t.dirIdx); i < want; i++ {
			idx[i] = -1
		}
		t.dirIdx = idx
	}
	row := t.dirIdx[p]
	if row < 0 {
		row = int32(len(t.dirLen))
		t.dirIdx[p] = row
		t.dirLen = append(t.dirLen, 0)
		var zero [dirStride]ident.NodeID
		t.dirRows = append(t.dirRows, zero[:]...)
	}
	switch l := t.dirLen[row]; {
	case l == arrayOverMark:
		t.dirOver[p] = append(t.dirOver[p], nb)
	case int(l) < dirStride:
		t.dirRows[int(row)*dirStride+int(l)] = nb
		t.dirLen[row] = l + 1
	default:
		if t.dirOver == nil {
			t.dirOver = make(map[ident.PatternID][]ident.NodeID)
		}
		off := int(row) * dirStride
		t.dirOver[p] = append(append([]ident.NodeID(nil), t.dirRows[off:off+dirStride]...), nb)
		t.dirLen[row] = arrayOverMark
	}
	t.tableSet.Add(p)
}

func (t *arrayTable) removeDir(p ident.PatternID, nb ident.NodeID) bool {
	if p < 0 || int(p) >= len(t.dirIdx) {
		return false
	}
	row := t.dirIdx[p]
	if row < 0 {
		return false
	}
	if l := t.dirLen[row]; l != arrayOverMark {
		off := int(row) * dirStride
		d := t.dirRows[off : off+int(l)]
		for i, x := range d {
			if x == nb {
				copy(d[i:], d[i+1:])
				t.dirLen[row] = l - 1
				if l == 1 {
					t.tableSet.Remove(p)
				}
				return true
			}
		}
		return false
	}
	d := t.dirOver[p]
	for i, x := range d {
		if x == nb {
			d = append(d[:i], d[i+1:]...)
			if len(d) == 0 {
				delete(t.dirOver, p)
				t.dirLen[row] = 0
				t.tableSet.Remove(p)
			} else {
				t.dirOver[p] = d
			}
			return true
		}
	}
	return false
}

// The Node operations, as they act on the table alone.

func (t *arrayTable) addInterest(p ident.PatternID, from ident.NodeID) {
	if !slices.Contains(t.dirs(p), from) {
		t.addDirRow(p, from)
	}
}

func (t *arrayTable) onLinkDown(nbr ident.NodeID) {
	for _, p := range t.tableSet.AppendTo(nil) {
		if slices.Contains(t.dirs(p), nbr) {
			t.removeDir(p, nbr)
		}
	}
}

func (t *arrayTable) onNodeDown() {
	for i := range t.dirLen {
		t.dirLen[i] = 0
	}
	t.dirOver = nil
	t.tableSet = ident.PatternSet{}
}

// discardNet is a Net that drops every send: the table test looks at
// one node's state, not at what it propagates.
type discardNet struct{}

func (discardNet) Register(ident.NodeID, network.Handler)    {}
func (discardNet) Send(_, _ ident.NodeID, _ wire.Message)    {}
func (discardNet) SendOOB(_, _ ident.NodeID, _ wire.Message) {}

// TestDirectionCellsMatchArrayOracle drives one node's cells and the
// array table through the same seeded random sequences of subscription
// and adjacency events and requires the same row, entry for entry and
// in order, for every pattern after every step. The sequences start
// from degrees up to 6, so hubs name slots the two bits cannot hold;
// they take interest from dispatchers that are not neighbors, as a
// socket peer can before its link is attached; and they free slots and
// hand them to new neighbors while other rows are live. Each of those
// paths must be taken at least once.
func TestDirectionCellsMatchArrayOracle(t *testing.T) {
	const (
		pool   = 10 // dispatchers 1..pool-1 are candidate neighbors
		numPat = 24
		far    = ident.PatternID(700) // beyond the first table growth
		steps  = 400
	)
	var hubRows, strangerRows, reusedSlots, spilled int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var initial []ident.NodeID
		for _, i := range rng.Perm(pool - 1)[:1+rng.Intn(6)] {
			initial = append(initial, ident.NodeID(i+1))
		}
		n := NewNode(0, sim.New(1), discardNet{}, initial, Config{})
		var ref arrayTable
		freed := false

		pattern := func() ident.PatternID {
			if rng.Intn(20) == 0 {
				return far
			}
			return ident.PatternID(rng.Intn(numPat))
		}
		other := func() ident.NodeID { return ident.NodeID(1 + rng.Intn(pool-1)) }
		neighbor := func() ident.NodeID {
			if nb := n.Neighbors(); len(nb) > 0 && rng.Intn(8) > 0 {
				return nb[rng.Intn(len(nb))]
			}
			return other()
		}
		for step := 0; step < steps; step++ {
			var what string
			switch op := rng.Intn(20); {
			case op < 8:
				p, from := pattern(), neighbor()
				what = "addInterest"
				if n.slotOf(from) < 0 {
					strangerRows++
				} else if n.slotOf(from) >= dirStride {
					hubRows++
				}
				n.addInterest(p, from)
				ref.addInterest(p, from)
			case op < 10:
				p, from := pattern(), neighbor()
				what = "SetTableInstant"
				n.SetTableInstant(p, from)
				ref.addInterest(p, from)
			case op < 14:
				p := pattern()
				from := neighbor()
				if row := ref.dirs(p); len(row) > 0 && rng.Intn(4) > 0 {
					from = row[rng.Intn(len(row))]
				}
				what = "removeInterest"
				n.removeInterest(p, from)
				ref.removeDir(p, from)
			case op < 16:
				nb := n.Neighbors()
				if len(nb) == 0 {
					continue
				}
				gone := nb[rng.Intn(len(nb))]
				what = "OnLinkDown"
				n.OnLinkDown(gone)
				ref.onLinkDown(gone)
				freed = true
			case op < 19:
				nbr := other()
				if slices.Contains(n.Neighbors(), nbr) {
					continue
				}
				what = "OnLinkUp"
				free := n.slotOf(ident.None)
				n.OnLinkUp(nbr)
				if free >= 0 {
					if got := n.slotOf(nbr); got != free {
						t.Fatalf("seed %d step %d: new neighbor %d took slot %d, first free was %d", seed, step, nbr, got, free)
					}
					if freed && !n.tableSet.Empty() {
						reusedSlots++
					}
				}
			default:
				what = "OnNodeDown/OnNodeUp"
				n.OnNodeDown()
				ref.onNodeDown()
				n.OnNodeUp()
			}
			if len(n.dirOver) > 0 {
				spilled++
			}
			for p := ident.PatternID(0); p <= far; p++ {
				if got, want := n.dirs(p), ref.dirs(p); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): pattern %d: row %v, array oracle %v", seed, step, what, p, got, want)
				}
			}
			if !n.tableSet.Equal(ref.tableSet) {
				t.Fatalf("seed %d step %d (%s): tableSet %v, array oracle %v", seed, step, what, n.tableSet.AppendTo(nil), ref.tableSet.AppendTo(nil))
			}
		}
	}
	for name, hits := range map[string]int{
		"rows toward slot >= 4":  hubRows,
		"rows toward a stranger": strangerRows,
		"reused slots":           reusedSlots,
		"steps with spill rows":  spilled,
	} {
		if hits == 0 {
			t.Errorf("the sequences never exercised %s", name)
		}
	}
}

// TestDirectionCellsTwoBytesPerPattern pins the installed table's
// footprint on a degree-4 tree: one two-byte cell per (node,
// pattern-index slot), no spill rows. The array table it replaced
// cost ≈ 22 B per row.
func TestDirectionCellsTwoBytesPerPattern(t *testing.T) {
	const n, numPat = 2000, 400
	rng := rand.New(rand.NewSource(45))
	topo, err := topology.New(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodes := buildPlainNodes(topo)
	InstallStableSubscriptions(topo, nodes, randomSubs(rng, n, 3, densePatterns(numPat)))
	width := (numPat - 1 + ident.PatternSetCap) &^ (ident.PatternSetCap - 1)
	bytes, rows := 0, 0
	for x, nd := range nodes {
		if len(nd.dirOver) != 0 {
			t.Fatalf("node %d spilled %d rows on a degree-4 tree", x, len(nd.dirOver))
		}
		bytes += cap(nd.cells) * int(unsafe.Sizeof(nd.cells[0]))
		rows += nd.tableSet.Len()
	}
	if limit := 2 * n * width; bytes > limit {
		t.Fatalf("direction table holds %d B, want ≤ %d (2 B per node and pattern-index slot)", bytes, limit)
	}
	if rows < n*numPat/2 {
		t.Fatalf("only %d rows installed; the pin needs a dense table", rows)
	}
}
