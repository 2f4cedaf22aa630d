package live

import (
	"net/netip"
	"testing"

	"repro/internal/ident"
	"repro/internal/wire"
)

// These tests pin the allocation behavior of the send hot path: once
// the pools are warm, encoding a record and packing a writer cycle into
// per-socket datagrams must not allocate. A regression here multiplies by every
// datagram a dispatcher moves.

func TestAllocsEnvelopeEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	msg := &wire.GossipPush{
		Gossiper: 1,
		Pattern:  7,
		Digest:   []ident.EventID{{Source: 1, Seq: 1}, {Source: 1, Seq: 2}},
	}
	encode := func() {
		bp := sendBufPool.Get().(*[]byte)
		*bp = appendRecord((*bp)[:0], 1, 2, msg, true)
		putSendBuf(bp)
	}
	encode() // warm the pool
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Fatalf("record encode allocates %.1f times per message, want 0", n)
	}
}

func TestAllocsPack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	a := netip.MustParseAddrPort("127.0.0.1:9")
	b := netip.MustParseAddrPort("127.0.0.1:10")
	msg := &wire.Subscribe{Pattern: 1}
	onePair := make([]out, 8)
	for i := range onePair {
		onePair[i] = out{from: 1, to: 2, addr: a, msg: msg}
	}
	onePair[3].msg = nil // one heartbeat in the mix
	// Many senders and nodes behind two sockets, interleaved, with
	// enough records to split each socket's datagram at the budget.
	mixed := make([]out, 400)
	for i := range mixed {
		mixed[i] = out{from: ident.NodeID(i % 5), to: ident.NodeID(10 + i%7), addr: a, msg: msg}
		if i%2 == 1 {
			mixed[i].addr = b
		}
		if i%9 == 0 {
			mixed[i].msg = nil
		}
	}
	for _, tc := range []struct {
		name    string
		entries []out
	}{{"one-pair", onePair}, {"mixed-destinations", mixed}} {
		s := &shard{}
		ds := make([]dgram, 0, 16)
		bufs := make([]*[]byte, 0, 16)
		open := make(map[netip.AddrPort]int, 16)
		flush := func() {
			ds, bufs = s.pack(tc.entries, ds[:0], bufs[:0], open)
			for i, bp := range bufs {
				*bp = ds[i].b
				putSendBuf(bp)
			}
		}
		flush() // warm the pool and the slices
		if n := testing.AllocsPerRun(200, flush); n != 0 {
			t.Fatalf("%s: pack allocates %.1f times per flush, want 0", tc.name, n)
		}
	}
}
