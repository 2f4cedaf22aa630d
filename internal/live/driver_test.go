package live

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ident"
	"repro/internal/wire"
)

// recorder is a transport that records what a shard transmits instead
// of writing it to a socket.
type recorder struct {
	mu   sync.Mutex
	sent []out
}

func (r *recorder) send(o out) {
	r.mu.Lock()
	r.sent = append(r.sent, o)
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

// socketless returns a dispatcher of the given number of shards that
// have no socket and no loop: every shard hands its records to tr, and
// its kernel advances only when the test drives an entry point.
func socketless(tr transport, shards int) *Dispatcher {
	d := &Dispatcher{done: make(chan struct{})}
	for i := 0; i < shards; i++ {
		s := newShard(d, nil)
		s.tr = tr
		d.shards = append(d.shards, s)
	}
	return d
}

// hostTestNode hosts a node on d without starting it, with the given
// peers in its directory: no gossip round or heartbeat fires behind
// the test's back.
func hostTestNode(t testing.TB, d *Dispatcher, cfg Config, peers ...ident.NodeID) *Node {
	t.Helper()
	n, err := d.host(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := make(map[ident.NodeID]*net.UDPAddr, len(peers))
	for _, p := range peers {
		dir[p] = fakeAddr(p)
	}
	n.SetDirectory(dir)
	return n
}

// testNode builds a node on a socketless one-shard dispatcher whose
// transport is a recorder (see hostTestNode).
func testNode(t testing.TB, cfg Config, peers ...ident.NodeID) (*Node, *recorder) {
	t.Helper()
	rec := &recorder{}
	return hostTestNode(t, socketless(rec, 1), cfg, peers...), rec
}

// receive routes one datagram on s as its loop does.
func (s *shard) receive(b []byte) {
	s.lock()
	s.route(b)
	s.unlock()
}

// handleRecord hands r to n under its shard lock, whatever r's
// destination.
func (n *Node) handleRecord(r record) {
	n.sh.lock()
	n.handleRecordLocked(r)
	n.sh.unlock()
}

// deliverFrom feeds msg to n as a record sent by from.
func (n *Node) deliverFrom(from ident.NodeID, msg wire.Message, oob bool) {
	var flags byte
	if oob {
		flags = flagOOB
	}
	n.handleRecord(record{from: from, to: n.cfg.ID, flags: flags, msg: wire.Encode(msg)})
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
