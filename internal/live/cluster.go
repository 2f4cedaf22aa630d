package live

import (
	"fmt"
	"math/rand"
	"net"

	"repro/internal/ident"
	"repro/internal/topology"
)

// Cluster is a set of live dispatchers on the loopback interface,
// connected in a random degree-bounded tree like the paper's overlay.
type Cluster struct {
	Nodes []*Node
	Topo  *topology.Tree
	// Disp hosts every node of the cluster.
	Disp *Dispatcher
}

// NewDispatcherCluster starts n live dispatchers, all hosted on one
// Dispatcher configured by dcfg, and wires them into a random tree with
// node degree at most maxDegree. mkcfg produces each node's
// configuration (ID is filled in by the cluster, and Seed when zero).
// On error, everything already started is closed.
func NewDispatcherCluster(n, maxDegree int, seed int64, dcfg DispatcherConfig, mkcfg func(i int) Config) (*Cluster, error) {
	topo, err := topology.New(n, maxDegree, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("live: building overlay: %w", err)
	}
	d, err := NewDispatcher(dcfg)
	if err != nil {
		return nil, fmt.Errorf("live: starting dispatcher: %w", err)
	}
	c := &Cluster{Topo: topo, Disp: d}
	for i := 0; i < n; i++ {
		cfg := mkcfg(i)
		cfg.ID = ident.NodeID(i)
		if cfg.Seed == 0 {
			cfg.Seed = seed
		}
		node, err := d.AddNode(cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("live: hosting node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, node)
	}
	c.link()
	return c, nil
}

// link gives every node the directory of all the cluster's addresses
// and wires each tree link as a pair of neighbors.
func (c *Cluster) link() {
	dir := make(map[ident.NodeID]*net.UDPAddr, len(c.Nodes))
	for _, node := range c.Nodes {
		dir[node.ID()] = node.Addr()
	}
	for _, node := range c.Nodes {
		node.SetDirectory(dir)
	}
	for _, l := range c.Topo.Links() {
		c.Nodes[l.A].AddNeighbor(l.B, c.Nodes[l.B].Addr())
		c.Nodes[l.B].AddNeighbor(l.A, c.Nodes[l.A].Addr())
	}
}

// Close shuts the hosting dispatcher down, and every node with it.
func (c *Cluster) Close() { _ = c.Disp.Close() }
