package epidemic

import (
	"repro/internal/live"
)

// The live API runs the same protocols outside the simulator: real
// dispatchers on UDP sockets (stdlib net), exchanging the same wire
// messages the simulation models. Use it to deploy a small reliable
// publish-subscribe overlay, or to observe the epidemic recovery
// algorithms on a real network.

// LiveConfig parameterizes one live dispatcher (see live.Config).
type LiveConfig = live.Config

// LiveNode is a dispatcher reachable at a real UDP address.
type LiveNode = live.Node

// LiveStats is a snapshot of a live node's counters.
type LiveStats = live.Stats

// LiveCluster is a loopback network of live dispatchers arranged in a
// random degree-bounded tree, all sharing one set of sockets.
type LiveCluster = live.Cluster

// NewLiveNode starts one live dispatcher on its own UDP socket, bound
// to cfg.Bind.
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) { return live.NewNode(cfg) }

// NewLiveCluster starts n live dispatchers on the loopback interface,
// connected in a random tree with the given degree bound and hosted on
// one socket dispatcher with its default configuration.
func NewLiveCluster(n, maxDegree int, seed int64, mkcfg func(i int) LiveConfig) (*LiveCluster, error) {
	return live.NewDispatcherCluster(n, maxDegree, seed, live.DispatcherConfig{}, mkcfg)
}
