package core

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ScratchPool recycles engine state across engine lifetimes. A
// parameter-sweep worker builds one engine per dispatcher per run and
// discards them all at the end; with a pool, the expensive per-engine
// structures — the β-sized event cache, the Lost buffer with its
// pattern rows, the high-water, route and pending-request tables, and
// the per-round scratch slices — are grown to their steady-state size
// during the first runs and then survive into later runs instead of
// being reallocated and re-grown from nil every time. A pool must not
// be shared between goroutines; each sweep worker owns its own.
type ScratchPool struct {
	free []engineScratch
}

// engineScratch is one recyclable bundle of an engine's reusable state
// (see the corresponding fields on Engine). The cache and Lost buffer
// are handed back emptied; the index rows are truncated and the other
// rows and the pending table cleared, keeping their capacity.
type engineScratch struct {
	pat  []ident.PatternID
	src  []ident.NodeID
	nb   []ident.NodeID
	id   []ident.EventID
	ev   []*wire.Event
	want []wire.LostEntry

	buf     *cache.Cache
	lost    *LostBuffer
	patRows []patRow
	tagRows []tagRow
	high    highMarks
	routes  [][]ident.NodeID
	pending ident.EventTable[sim.Time]
}

func (p *ScratchPool) get() engineScratch {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return engineScratch{}
}

func (p *ScratchPool) put(s engineScratch) {
	// Drop every event pointer (scratch slice, cache contents) so a
	// pooled bundle cannot pin a finished run's events — or its engine,
	// via the cache's OnEvict closure — in memory. The index rows hold
	// identifiers only.
	s.ev = s.ev[:cap(s.ev)]
	clear(s.ev)
	s.ev = s.ev[:0]
	if s.buf != nil {
		s.buf.Reset(s.buf.Capacity(), cache.FIFOPolicy, nil)
	}
	for i := range s.patRows {
		s.patRows[i].reset()
	}
	for i := range s.tagRows {
		s.tagRows[i] = s.tagRows[i][:0]
	}
	s.high.reset()
	clear(s.routes)
	s.pending.Clear()
	if len(p.free) == cap(p.free) {
		// Double: a 10k-node run releases 10k bundles of a few hundred
		// bytes at once, and append's 1.25× growth for large slices
		// would copy them four times over.
		p.free = slices.Grow(p.free, max(len(p.free), 8))
	}
	p.free = append(p.free, s)
}
