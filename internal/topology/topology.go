// Package topology models the overlay network of dispatchers: an
// unrooted tree with bounded node degree (the paper connects each
// dispatcher to at most four others, Sec. IV-A), plus the mutation
// operations used by the reconfiguration scenario — breaking a link and
// replacing it with another that keeps the network connected
// (Sec. IV-A, "Frequency of reconfiguration").
package topology

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ident"
)

// Common errors returned by mutation operations.
var (
	ErrNoSuchLink   = errors.New("topology: no such link")
	ErrLinkExists   = errors.New("topology: link already exists")
	ErrDegreeFull   = errors.New("topology: node degree limit reached")
	ErrWouldCycle   = errors.New("topology: link would create a cycle")
	ErrSameEndpoint = errors.New("topology: self link")
	// ErrLinkPresent and ErrReconnected are ReplacementLink's "nothing
	// to repair" answers: the broken link is back, or another path
	// already joins its two endpoints.
	ErrLinkPresent = errors.New("topology: broken link is present again")
	ErrReconnected = errors.New("topology: endpoints of the broken link are already reconnected")
)

// Link is an undirected edge between two dispatchers. The canonical
// form has A < B.
type Link struct {
	A, B ident.NodeID
}

// Canon returns the link with endpoints in canonical order.
func (l Link) Canon() Link {
	if l.A > l.B {
		return Link{A: l.B, B: l.A}
	}
	return l
}

// Other returns the endpoint opposite to n. It panics when n is not an
// endpoint of the link.
func (l Link) Other(n ident.NodeID) ident.NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		panic(fmt.Sprintf("topology: %v is not an endpoint of %v-%v", n, l.A, l.B))
	}
}

// Tree is a mutable overlay topology. During normal operation it is a
// spanning tree of the dispatchers; while a reconfiguration is in
// progress (between RemoveLink and AddLink) it is a two-component
// forest.
//
// Tree is not safe for concurrent use.
type Tree struct {
	n         int
	maxDegree int
	adj       [][]ident.NodeID
	links     int
	version   uint64
	// kind is the overlay family (see overlay.go). The zero value is
	// KindTree; only KindTree refuses intra-component links in AddLink.
	kind Kind
	// incarnation counts how many times each (canonical) link has been
	// created. A re-created link is a new connection: messages in
	// flight on the previous incarnation must not be delivered on the
	// new one. It is touched only on mutation; inc[a][i] copies the
	// count of the link to adj[a][i], so a present link's incarnation
	// is read from its adjacency slot.
	incarnation map[Link]uint64
	inc         [][]uint64

	// routing cache, rebuilt lazily per version: a rooted-forest view
	// (BFS parent, depth, component id) from which hop distances are
	// answered by an LCA climb. Replaces the old N×N distance matrix,
	// which was ~20 GB at N=100k.
	distVersion uint64
	parent      []int32
	depth       []int32
	comp        []int32
	compSize    []int64

	// onMutate, when set, runs after every structural mutation
	// (addEdge, RemoveLink). Installed by invariant monitors; nil in
	// ordinary runs, costing one nil check per mutation.
	onMutate func()
}

// New builds a random spanning tree over n dispatchers with node degree
// at most maxDegree. Nodes join one at a time and attach to a uniformly
// random node among those at the smallest depth that still has a free
// slot; this yields the "balanced-ish" trees described in DESIGN.md,
// whose mean pairwise distance at N=100, maxDegree=4 matches the
// paper's baseline delivery anchors.
func New(n, maxDegree int, rng *rand.Rand) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", n)
	}
	if maxDegree < 2 && n > 2 {
		return nil, fmt.Errorf("topology: maxDegree %d cannot connect %d nodes", maxDegree, n)
	}
	t := &Tree{
		n:         n,
		maxDegree: maxDegree,
		adj:       make([][]ident.NodeID, n),
	}
	// Nodes attach to a uniformly random node among those at the
	// smallest depth that still has a free slot. The original builder
	// re-scanned all earlier nodes per join (O(N²), ~10¹⁰ steps at
	// N=100k); this one keeps the free nodes of the current frontier
	// depth in a Fenwick tree over node ids and answers "the r-th
	// candidate in ascending id order" as an order-statistic descent.
	// Because candidates appear in the same ascending order the scan
	// produced and the candidate count is identical, every rng.Intn
	// draw and every chosen parent is bit-identical to the old builder
	// at every N.
	depth := make([]int, n)
	frontier := newFrontier(n)
	frontier.insert(0) // node 0 sits alone at depth 0
	pending := [][]ident.NodeID{nil, nil}
	minDepth := 0
	for i := 1; i < n; i++ {
		for frontier.count == 0 {
			minDepth++
			if minDepth >= len(pending) || len(pending) == 0 {
				return nil, fmt.Errorf("topology: no free slots for node %d (maxDegree=%d)", i, maxDegree)
			}
			for _, v := range pending[minDepth] {
				if len(t.adj[v]) < maxDegree {
					frontier.insert(int(v))
				}
			}
			pending[minDepth] = nil
		}
		parent := ident.NodeID(frontier.selectNth(rng.Intn(frontier.count)))
		t.addEdge(parent, ident.NodeID(i))
		depth[i] = depth[parent] + 1
		if len(t.adj[parent]) >= maxDegree {
			frontier.remove(int(parent))
		}
		for depth[i] >= len(pending) {
			pending = append(pending, nil)
		}
		pending[depth[i]] = append(pending[depth[i]], ident.NodeID(i))
	}
	return t, nil
}

// frontier is a Fenwick (binary indexed) tree over node ids holding
// 0/1 membership counts: the builder's candidate set at the current
// minimum depth, supporting O(log n) insert/remove and "select the
// r-th member in ascending id order".
type frontier struct {
	tree  []int32
	in    []bool
	count int
}

func newFrontier(n int) *frontier {
	return &frontier{tree: make([]int32, n+1), in: make([]bool, n)}
}

func (f *frontier) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += int32(delta)
	}
}

func (f *frontier) insert(i int) {
	if !f.in[i] {
		f.in[i] = true
		f.count++
		f.add(i, 1)
	}
}

func (f *frontier) remove(i int) {
	if f.in[i] {
		f.in[i] = false
		f.count--
		f.add(i, -1)
	}
}

// selectNth returns the id of the r-th member (0-based) in ascending
// order, via the standard Fenwick order-statistic descent.
func (f *frontier) selectNth(r int) int {
	want := int32(r) + 1
	pos := 0
	mask := 1
	for mask<<1 < len(f.tree) {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := pos + mask
		if next < len(f.tree) && f.tree[next] < want {
			want -= f.tree[next]
			pos = next
		}
	}
	return pos // pos is the 1-based prefix position minus one == node id
}

// NewLine builds a path topology 0-1-2-...-(n-1). Used by tests that
// need predictable hop counts.
func NewLine(n int) *Tree {
	t := &Tree{n: n, maxDegree: 2, adj: make([][]ident.NodeID, n)}
	for i := 0; i < n-1; i++ {
		t.addEdge(ident.NodeID(i), ident.NodeID(i+1))
	}
	return t
}

// NewStar builds a star with node 0 at the center. Used by tests.
func NewStar(n int) *Tree {
	t := &Tree{n: n, maxDegree: n - 1, adj: make([][]ident.NodeID, n)}
	for i := 1; i < n; i++ {
		t.addEdge(0, ident.NodeID(i))
	}
	return t
}

func (t *Tree) addEdge(a, b ident.NodeID) {
	if t.incarnation == nil {
		t.incarnation = make(map[Link]uint64)
		t.inc = make([][]uint64, t.n)
	}
	l := Link{A: a, B: b}.Canon()
	t.incarnation[l]++
	inc := t.incarnation[l]
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
	t.inc[a] = append(t.inc[a], inc)
	t.inc[b] = append(t.inc[b], inc)
	t.links++
	t.version++
	if t.onMutate != nil {
		t.onMutate()
	}
}

// SetMutationHook installs fn to run after every structural mutation
// of the tree: each addEdge (AddLink, ReconnectAround, restart rejoin)
// and each RemoveLink (including the per-link removals inside
// RemoveNode). Passing nil removes the hook. The hook must not mutate
// the tree.
func (t *Tree) SetMutationHook(fn func()) { t.onMutate = fn }

// LinkIncarnation returns how many times the link between a and b has
// been created so far (0 when it never existed). Transport layers use
// it to drop traffic that was in flight on a previous incarnation of a
// re-created link.
func (t *Tree) LinkIncarnation(a, b ident.NodeID) uint64 {
	return t.incarnation[Link{A: a, B: b}.Canon()]
}

// LinkSlot returns NeighborSlot(a, b) together with the link's
// incarnation, in one scan of a's adjacency list; slot is -1 (and inc
// 0) when a and b are not directly connected. It answers the
// transport's per-message question — is this link still the one the
// message was sent on? — without hashing.
func (t *Tree) LinkSlot(a, b ident.NodeID) (slot int, inc uint64) {
	for i, x := range t.adj[a] {
		if x == b {
			return i, t.inc[a][i]
		}
	}
	return -1, 0
}

// N returns the number of dispatchers.
func (t *Tree) N() int { return t.n }

// MaxDegree returns the degree bound.
func (t *Tree) MaxDegree() int { return t.maxDegree }

// Version increases on every mutation; callers use it to invalidate
// derived state.
func (t *Tree) Version() uint64 { return t.version }

// NumLinks returns the number of links currently present.
func (t *Tree) NumLinks() int { return t.links }

// Degree returns the number of neighbors of n.
func (t *Tree) Degree(n ident.NodeID) int { return len(t.adj[n]) }

// Neighbors returns the neighbors of n. The returned slice is owned by
// the tree and must not be mutated or retained across mutations.
func (t *Tree) Neighbors(n ident.NodeID) []ident.NodeID { return t.adj[n] }

// HasLink reports whether a and b are directly connected.
func (t *Tree) HasLink(a, b ident.NodeID) bool {
	return t.NeighborSlot(a, b) >= 0
}

// NeighborSlot returns the index of b in a's adjacency list, or -1 when
// a and b are not directly connected. Slots are stable between
// mutations of a's adjacency; a RemoveLink at a may compact later slots
// down by one. Transport layers use the slot to key dense per-neighbor
// state (e.g. FIFO queue occupancy) without hashing.
func (t *Tree) NeighborSlot(a, b ident.NodeID) int {
	for i, x := range t.adj[a] {
		if x == b {
			return i
		}
	}
	return -1
}

// Links returns every link in canonical order. The slice is freshly
// allocated.
func (t *Tree) Links() []Link {
	out := make([]Link, 0, t.links)
	for a := 0; a < t.n; a++ {
		for _, b := range t.adj[a] {
			if ident.NodeID(a) < b {
				out = append(out, Link{A: ident.NodeID(a), B: b})
			}
		}
	}
	return out
}

// RandomLink returns a uniformly random link. It panics on an empty
// topology.
func (t *Tree) RandomLink(rng *rand.Rand) Link {
	links := t.Links()
	if len(links) == 0 {
		panic("topology: no links")
	}
	return links[rng.Intn(len(links))]
}

// RemoveLink deletes the link between a and b, splitting the tree into
// two components.
func (t *Tree) RemoveLink(a, b ident.NodeID) error {
	if !t.HasLink(a, b) {
		return fmt.Errorf("%w: %v-%v", ErrNoSuchLink, a, b)
	}
	t.adj[a], t.inc[a] = removeNode(t.adj[a], t.inc[a], b)
	t.adj[b], t.inc[b] = removeNode(t.adj[b], t.inc[b], a)
	t.links--
	t.version++
	if t.onMutate != nil {
		t.onMutate()
	}
	return nil
}

// removeNode deletes n from an adjacency list and the same slot from
// its incarnation list, shifting later slots down by one.
func removeNode(s []ident.NodeID, inc []uint64, n ident.NodeID) ([]ident.NodeID, []uint64) {
	for i, x := range s {
		if x == n {
			return append(s[:i], s[i+1:]...), append(inc[:i], inc[i+1:]...)
		}
	}
	return s, inc
}

// AddLink connects a and b. It fails when the link exists or an
// endpoint is at its degree limit. On KindTree overlays it also fails
// when the endpoints are already connected (a new link inside one
// component would create a cycle); cyclic kinds accept intra-component
// links — redundancy is their point.
func (t *Tree) AddLink(a, b ident.NodeID) error {
	switch {
	case a == b:
		return ErrSameEndpoint
	case t.HasLink(a, b):
		return fmt.Errorf("%w: %v-%v", ErrLinkExists, a, b)
	case len(t.adj[a]) >= t.maxDegree:
		return fmt.Errorf("%w: %v", ErrDegreeFull, a)
	case len(t.adj[b]) >= t.maxDegree:
		return fmt.Errorf("%w: %v", ErrDegreeFull, b)
	case t.kind == KindTree && t.sameComponent(a, b):
		return fmt.Errorf("%w: %v-%v", ErrWouldCycle, a, b)
	}
	t.addEdge(a, b)
	return nil
}

// sameComponent reports whether a BFS from a reaches b.
func (t *Tree) sameComponent(a, b ident.NodeID) bool {
	if a == b {
		return true
	}
	seen := make([]bool, t.n)
	seen[a] = true
	queue := []ident.NodeID{a}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range t.adj[x] {
			if y == b {
				return true
			}
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return false
}

// Component returns the IDs of every node reachable from a, including a
// itself, in BFS order.
func (t *Tree) Component(a ident.NodeID) []ident.NodeID {
	seen := make([]bool, t.n)
	seen[a] = true
	queue := []ident.NodeID{a}
	for i := 0; i < len(queue); i++ {
		for _, y := range t.adj[queue[i]] {
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return queue
}

// Connected reports whether the topology is a single component.
func (t *Tree) Connected() bool {
	return len(t.Component(0)) == t.n
}

// IsTree reports whether the topology is connected and acyclic.
func (t *Tree) IsTree() bool {
	return t.links == t.n-1 && t.Connected()
}

// ReplacementLink chooses a random link (x, y) that reconnects the two
// components around the removed link broken, respecting the degree
// bound. The topology may be a forest with further links missing
// (overlapping reconfigurations, paper Sec. IV-A): only the components
// containing broken.A and broken.B are considered, which keeps each
// repair independent. The replacement differs from the broken link
// whenever any other valid pair exists. When there is nothing left to
// repair it returns ErrLinkPresent or ErrReconnected.
func (t *Tree) ReplacementLink(broken Link, rng *rand.Rand) (Link, error) {
	if t.HasLink(broken.A, broken.B) {
		return Link{}, fmt.Errorf("%w: %v-%v", ErrLinkPresent, broken.A, broken.B)
	}
	compA := t.Component(broken.A)
	for _, x := range compA {
		if x == broken.B {
			return Link{}, fmt.Errorf("%w: %v-%v", ErrReconnected, broken.A, broken.B)
		}
	}
	compB := t.Component(broken.B)
	freeA := freeSlots(t, compA)
	freeB := freeSlots(t, compB)
	if len(freeA) == 0 || len(freeB) == 0 {
		return Link{}, fmt.Errorf("topology: no degree-%d slots to reconnect %v-%v", t.maxDegree, broken.A, broken.B)
	}
	// Prefer a replacement different from the broken link.
	var candA []ident.NodeID
	for _, x := range freeA {
		if x != broken.A {
			candA = append(candA, x)
		}
	}
	var candB []ident.NodeID
	for _, y := range freeB {
		if y != broken.B {
			candB = append(candB, y)
		}
	}
	a, b := broken.A, broken.B
	switch {
	case len(candA) > 0 && len(candB) > 0:
		a = candA[rng.Intn(len(candA))]
		b = candB[rng.Intn(len(candB))]
	case len(candA) > 0:
		a = candA[rng.Intn(len(candA))]
		b = broken.B
	case len(candB) > 0:
		a = broken.A
		b = candB[rng.Intn(len(candB))]
	}
	return Link{A: a, B: b}.Canon(), nil
}

func freeSlots(t *Tree, comp []ident.NodeID) []ident.NodeID {
	var out []ident.NodeID
	for _, n := range comp {
		if len(t.adj[n]) < t.maxDegree {
			out = append(out, n)
		}
	}
	return out
}

// Dist returns the hop distance between a and b, or -1 when they are in
// different components. The rooted-forest view is cached per topology
// version; a query is an LCA climb, O(tree depth) with no per-pair
// storage — the old N×N int16 matrix needed ~20 GB at N=100k.
//
// On cyclic overlay kinds the value is the distance in the cached BFS
// forest, an upper bound on the true shortest path (exact on trees).
// Its only consumers — out-of-band delay shaping and the MeanPathLength
// metric — tolerate the approximation; the FIFO monitor bounds OOB
// delay by N-1 hops independently of Dist.
func (t *Tree) Dist(a, b ident.NodeID) int {
	t.ensureRouting()
	if t.comp[a] != t.comp[b] {
		return -1
	}
	d := 0
	x, y := a, b
	for t.depth[x] > t.depth[y] {
		x = ident.NodeID(t.parent[x])
		d++
	}
	for t.depth[y] > t.depth[x] {
		y = ident.NodeID(t.parent[y])
		d++
	}
	for x != y {
		x = ident.NodeID(t.parent[x])
		y = ident.NodeID(t.parent[y])
		d += 2
	}
	return d
}

// ensureRouting rebuilds the rooted-forest view (BFS parent, depth,
// component id, component sizes) when the topology changed: one O(N)
// sweep per mutated version, amortized across all Dist queries.
func (t *Tree) ensureRouting() {
	if t.parent != nil && t.distVersion == t.version {
		return
	}
	if t.parent == nil {
		t.parent = make([]int32, t.n)
		t.depth = make([]int32, t.n)
		t.comp = make([]int32, t.n)
	}
	for i := range t.comp {
		t.comp[i] = -1
	}
	t.compSize = t.compSize[:0]
	queue := make([]ident.NodeID, 0, t.n)
	for src := 0; src < t.n; src++ {
		if t.comp[src] >= 0 {
			continue
		}
		c := int32(len(t.compSize))
		t.comp[src] = c
		t.parent[src] = -1
		t.depth[src] = 0
		queue = queue[:0]
		queue = append(queue, ident.NodeID(src))
		size := int64(1)
		for i := 0; i < len(queue); i++ {
			x := queue[i]
			for _, y := range t.adj[x] {
				if t.comp[y] < 0 {
					t.comp[y] = c
					t.parent[y] = int32(x)
					t.depth[y] = t.depth[x] + 1
					queue = append(queue, y)
					size++
				}
			}
		}
		t.compSize = append(t.compSize, size)
	}
	t.distVersion = t.version
}

// MeanPairwiseDistance returns the mean hop distance over all ordered
// pairs of distinct nodes in the same component. Used to calibrate the
// loss model against the paper's baseline delivery anchors.
//
// Computed by edge contribution — a tree edge separating k nodes from
// the other size-k of its component lies on k·(size-k) unordered
// paths — in O(N) instead of summing the N² pair matrix. All partial
// sums are integers below 2⁵³, so the float64 result is exactly the
// value the pairwise summation produced.
func (t *Tree) MeanPairwiseDistance() float64 {
	t.ensureRouting()
	var sum, cnt int64
	// below[x] = size of x's subtree in the rooted forest. Children
	// appear after parents in BFS order per component, so one reverse
	// sweep over ids ordered by depth accumulates subtree sizes; the
	// BFS order is re-derived by bucketing ids by depth.
	below := make([]int64, t.n)
	maxDepth := int32(0)
	for _, d := range t.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	buckets := make([][]ident.NodeID, maxDepth+1)
	for i := 0; i < t.n; i++ {
		below[i] = 1
		buckets[t.depth[i]] = append(buckets[t.depth[i]], ident.NodeID(i))
	}
	for d := maxDepth; d >= 1; d-- {
		for _, x := range buckets[d] {
			p := t.parent[x]
			below[p] += below[x]
			size := t.compSize[t.comp[x]]
			sum += 2 * below[x] * (size - below[x]) // ordered pairs through edge x→parent
		}
	}
	for _, size := range t.compSize {
		cnt += size * (size - 1)
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}
