package pubsub

import (
	"repro/internal/ident"
	"repro/internal/sim"
)

// NodePool recycles dispatcher state across node lifetimes. A sweep
// worker builds N dispatchers per run and discards them all at the end;
// with a pool, the per-node structures that are grown on demand — the
// received-event bitmaps, the per-pattern sequence slab, the local
// pattern list — are grown once and then reused run after run. The direction
// table is not among them: it belongs to the stable install's arena
// and is dropped on Release. A pool must not be shared between
// goroutines; each sweep worker owns its own.
type NodePool struct {
	free []*Node
}

// NewNodeIn is NewNode with a node pool: when pool (non-nil) holds a
// released node, that node is reset to the given identity and neighbor
// set instead of allocating a fresh one. A reset node is observably
// identical to a new one — every piece of subscription, routing, and
// delivery state is cleared; only map buckets and slice capacity
// survive.
func NewNodeIn(id ident.NodeID, k *sim.Kernel, net Net, neighbors []ident.NodeID, cfg Config, pool *NodePool) *Node {
	if pool != nil {
		if m := len(pool.free); m > 0 {
			n := pool.free[m-1]
			pool.free = pool.free[:m-1]
			n.reset(id, k, net, neighbors, cfg)
			n.pool = pool
			net.Register(id, n)
			return n
		}
	}
	n := NewNode(id, k, net, neighbors, cfg)
	n.pool = pool
	return n
}

// reset re-targets a pooled node at a new identity, clearing all
// subscription, routing, and delivery state while keeping the grown
// capacity of its maps and scratch slices.
func (n *Node) reset(id ident.NodeID, k *sim.Kernel, net Net, neighbors []ident.NodeID, cfg Config) {
	n.id, n.k, n.net, n.cfg = id, k, net, cfg
	n.neighbors = append(n.neighbors[:0], neighbors...)
	n.localSet = ident.PatternSet{}
	n.localList = n.localList[:0]
	// Release dropped the direction table; the installer carves a new
	// one.
	n.dirOver = nil
	n.tableSet = ident.PatternSet{}
	n.known = nil
	n.linkEpoch = 0
	n.nextSeq = 0
	clear(n.patSeq)
	n.received.Clear()
	n.recovery = NopRecovery{}
}

// Release returns the node's reusable state to the pool it was built
// with. The node must not be used afterwards. A no-op for nodes built
// without a pool. References to the run's kernel, network, recovery
// engine, and delivery callback are dropped so a pooled node cannot
// pin a finished simulation in memory.
func (n *Node) Release() {
	if n.pool == nil {
		return
	}
	p := n.pool
	n.pool = nil
	n.k, n.net = nil, nil
	n.cfg = Config{}
	n.recovery = NopRecovery{}
	// The direction table is a region of the run-wide install arena:
	// one pooled node keeping its slices would pin the whole arena.
	n.dirIdx, n.dirRows, n.dirLen = nil, nil, nil
	p.free = append(p.free, n)
}
