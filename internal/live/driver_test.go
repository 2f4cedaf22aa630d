package live

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ident"
	"repro/internal/wire"
)

// recorder is a transport that records what a node transmits instead
// of writing it to a socket.
type recorder struct {
	mu   sync.Mutex
	sent []out
}

func (r *recorder) sendMsg(_, to ident.NodeID, _ netip.AddrPort, msg wire.Message, oob bool) {
	r.mu.Lock()
	r.sent = append(r.sent, out{to: to, msg: msg, oob: oob})
	r.mu.Unlock()
}

func (r *recorder) sendHeartbeat(_, to ident.NodeID, _ netip.AddrPort) {
	r.mu.Lock()
	r.sent = append(r.sent, out{to: to})
	r.mu.Unlock()
}

func (r *recorder) localAddr() *net.UDPAddr { return fakeAddr(0) }

// take returns and forgets everything recorded so far.
func (r *recorder) take() []out {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sent
	r.sent = nil
	return s
}

// fakeAddr is a loopback address nobody listens on.
func fakeAddr(id ident.NodeID) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000 + int(id)}
}

// testNode builds a node on a recorder, with the given peers in its
// directory and no timer goroutine: its kernel advances only when the
// test drives an entry point, so no gossip round, retry or heartbeat
// fires behind the test's back.
func testNode(t testing.TB, cfg Config, peers ...ident.NodeID) (*Node, *recorder) {
	t.Helper()
	cfg, gcfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	// A socketless dispatcher: Close only deregisters the node from it.
	n, err := newNodeState(cfg, gcfg, rec, &Dispatcher{})
	if err != nil {
		t.Fatal(err)
	}
	dir := make(map[ident.NodeID]*net.UDPAddr, len(peers))
	for _, p := range peers {
		dir[p] = fakeAddr(p)
	}
	n.SetDirectory(dir)
	return n, rec
}

// deliverFrom feeds msg to n as a datagram sent by from.
func (n *Node) deliverFrom(from ident.NodeID, msg wire.Message, oob bool) {
	n.handleDatagram(n.encodeEnvelope(nil, from, msg, oob))
}

// isPending reports whether id has a live pending-request entry.
func (n *Node) isPending(id ident.EventID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.pending.Get(id)
	return ok
}

// pendingLen returns the size of the pending-request table.
func (n *Node) pendingLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pending.Len()
}

// describe renders one transmission canonically, for comparing what two
// implementations sent.
func describe(o out) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v oob=%v ", o.to, o.oob)
	switch m := o.msg.(type) {
	case nil:
		b.WriteString("heartbeat")
	case *wire.Event:
		fmt.Fprintf(&b, "event %v tags=%v route=%v", m.ID, m.Tags, m.Route)
	case *wire.Subscribe:
		fmt.Fprintf(&b, "subscribe %v", m.Pattern)
	case *wire.Unsubscribe:
		fmt.Fprintf(&b, "unsubscribe %v", m.Pattern)
	case *wire.GossipPush:
		fmt.Fprintf(&b, "push %v %v %v", m.Gossiper, m.Pattern, m.Digest)
	case *wire.GossipSubPull:
		fmt.Fprintf(&b, "subpull %v %v %v", m.Gossiper, m.Pattern, m.Wanted)
	case *wire.GossipPubPull:
		fmt.Fprintf(&b, "pubpull %v %v %v route=%v next=%d", m.Gossiper, m.Source, m.Wanted, m.Route, m.Next)
	case *wire.GossipRandom:
		fmt.Fprintf(&b, "random %v %v", m.Gossiper, m.Wanted)
	case *wire.Request:
		fmt.Fprintf(&b, "request %v %v", m.Requester, m.IDs)
	case *wire.Retransmit:
		ids := make([]ident.EventID, len(m.Events))
		for i, ev := range m.Events {
			ids[i] = ev.ID
		}
		fmt.Fprintf(&b, "retransmit %v %v", m.Responder, ids)
	default:
		fmt.Fprintf(&b, "%v", m.Kind())
	}
	return b.String()
}

// describeAll renders transmissions as a sorted list: the order in which
// one step's messages leave is not part of the protocol.
func describeAll(outs []out) []string {
	s := make([]string, len(outs))
	for i, o := range outs {
		s[i] = describe(o)
	}
	sort.Strings(s)
	return s
}
