package live

import (
	"net/netip"
	"testing"

	"repro/internal/ident"
	"repro/internal/wire"
)

// These tests pin the allocation behavior of the send hot path: once
// the pools are warm, enveloping a message and packing a coalesced
// batch must not allocate. A regression here multiplies by every
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
		b := appendEnvelope((*bp)[:0], 1, 2, flagOOB)
		b = msg.Append(b)
		*bp = b
		putSendBuf(bp)
	}
	encode() // warm the pool
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Fatalf("envelope encode allocates %.1f times per message, want 0", n)
	}
}

func TestAllocsPack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	s := &shard{}
	addr := netip.MustParseAddrPort("127.0.0.1:9")
	msg := &wire.Subscribe{Pattern: 1}
	entries := make([]outEntry, 8)
	for i := range entries {
		entries[i] = outEntry{from: 1, to: 2, addr: addr, msg: msg}
	}
	entries[3].msg = nil // one heartbeat in the mix
	ds := make([]dgram, 0, 16)
	bufs := make([]*[]byte, 0, 16)
	open := make(map[packKey]int, 16)
	flush := func() {
		ds, bufs = s.pack(entries, ds[:0], bufs[:0], open)
		for i, bp := range bufs {
			*bp = ds[i].b
			putSendBuf(bp)
		}
	}
	flush() // warm the pool and the map
	if n := testing.AllocsPerRun(200, flush); n != 0 {
		t.Fatalf("pack allocates %.1f times per flush, want 0", n)
	}
}
