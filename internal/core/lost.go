package core

import (
	"slices"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// compareLost orders entries (source, pattern, seq) — the canonical
// digest order of every negative digest on the wire.
func compareLost(a, b wire.LostEntry) int {
	switch {
	case a.Source != b.Source:
		if a.Source < b.Source {
			return -1
		}
		return 1
	case a.Pattern != b.Pattern:
		if a.Pattern < b.Pattern {
			return -1
		}
		return 1
	case a.Seq != b.Seq:
		if a.Seq < b.Seq {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// digestView is one incrementally maintained digest index: a slab of
// entries kept in canonical digest order, plus a lazily materialized
// snapshot that is handed to callers.
//
// The slab is mutated in place (binary-search insert/delete, no
// re-sort); the snapshot is immutable once handed out. Gossip messages
// embed the snapshot and may outlive the current buffer state (the
// simulator delivers them at a later virtual time), so a mutation never
// touches a previously returned snapshot — it only marks the cached one
// stale, and the next read clones the slab afresh.
type digestView struct {
	items []wire.LostEntry // authoritative, sorted
	snap  []wire.LostEntry // cached immutable snapshot; nil when stale
}

func (v *digestView) insert(e wire.LostEntry) {
	i, _ := slices.BinarySearchFunc(v.items, e, compareLost)
	v.items = slices.Insert(v.items, i, e)
	v.snap = nil
}

func (v *digestView) remove(e wire.LostEntry) {
	i, ok := slices.BinarySearchFunc(v.items, e, compareLost)
	if !ok {
		return
	}
	v.items = slices.Delete(v.items, i, i+1)
	v.snap = nil
}

// view returns the current entries as an immutable snapshot. Callers
// must not mutate it; it may be embedded directly in gossip messages.
func (v *digestView) view() []wire.LostEntry {
	if len(v.items) == 0 {
		return nil
	}
	if v.snap == nil {
		v.snap = slices.Clone(v.items)
	}
	return v.snap
}

// detection is one Add recorded in FIFO order. A detection becomes
// stale when its entry is removed or re-added later (the map carries
// the current detection time); stale positions are skipped lazily.
type detection struct {
	e  wire.LostEntry
	at sim.Time
}

// LostBuffer is the Lost buffer of the pull algorithms (paper
// Sec. III-B): the set of detected-but-not-yet-recovered events, each
// identified by (source, pattern, per-pattern sequence number). The
// buffer is capacity-bounded (FIFO eviction of the oldest detection)
// and entries expire after a TTL, so undetectable or unrecoverable
// losses do not pin memory; the paper specifies neither bound (see
// DESIGN.md).
//
// Digest reads (All, ForPattern, ForSource, Patterns, Sources) are
// served from incrementally maintained sorted indexes and return cached
// snapshots: a gossip round that finds the buffer unchanged since the
// last round performs no allocation and no sorting.
type LostBuffer struct {
	capacity int
	ttl      sim.Time
	entries  map[wire.LostEntry]sim.Time // current detection time
	queue    []detection                 // Add order; may hold stale positions
	head     int                         // eviction cursor (FIFO)
	exp      int                         // expiry cursor; queue[:exp] is fully expired

	all   digestView
	byPat map[ident.PatternID]*digestView
	bySrc map[ident.NodeID]*digestView

	pats      []ident.PatternID // cached sorted patterns with entries
	srcs      []ident.NodeID    // cached sorted sources with entries
	patsStale bool
	srcsStale bool

	// patSet mirrors the distinct patterns with entries as a tiered
	// bitset, maintained at the same empty↔non-empty transitions that
	// invalidate pats. The tiered set represents every pattern
	// identifier, so it is always the exact pattern set.
	patSet ident.PatternSet
}

// NewLostBuffer returns an empty buffer holding at most capacity
// entries for ttl each. The entry map starts empty and grows with the
// losses actually detected; most buffers of a large run stay near-empty.
func NewLostBuffer(capacity int, ttl sim.Time) *LostBuffer {
	return &LostBuffer{
		capacity: capacity,
		ttl:      ttl,
		entries:  make(map[wire.LostEntry]sim.Time),
		byPat:    make(map[ident.PatternID]*digestView),
		bySrc:    make(map[ident.NodeID]*digestView),
	}
}

// Len returns the number of outstanding entries (including any that
// have expired but were not yet swept).
func (b *LostBuffer) Len() int { return len(b.entries) }

// Reset empties the buffer and re-targets it at a new capacity and TTL,
// keeping the entry map, detection queue, and digest-view slabs the
// previous run grew. The per-pattern and per-source views are truncated
// in place, never freed, so a recycled buffer reaches its steady-state
// footprint once and stays there across a whole parameter sweep.
// Previously returned snapshots are unaffected (they are separate
// clones).
func (b *LostBuffer) Reset(capacity int, ttl sim.Time) {
	b.capacity, b.ttl = capacity, ttl
	clear(b.entries)
	b.queue = b.queue[:0]
	b.head, b.exp = 0, 0
	b.all.items = b.all.items[:0]
	b.all.snap = nil
	for _, v := range b.byPat {
		v.items = v.items[:0]
		v.snap = nil
	}
	for _, v := range b.bySrc {
		v.items = v.items[:0]
		v.snap = nil
	}
	b.pats, b.srcs = nil, nil
	b.patsStale, b.srcsStale = false, false
	b.patSet = ident.PatternSet{}
}

// Add records a newly detected loss. Re-detecting an outstanding entry
// is a no-op. Detection times must be non-decreasing across Adds (both
// the kernel clock and the live node's monotonic clock guarantee this);
// the lazy expiry sweep relies on it.
func (b *LostBuffer) Add(e wire.LostEntry, now sim.Time) {
	if _, ok := b.entries[e]; ok {
		return
	}
	for len(b.entries) >= b.capacity {
		b.evictOldest()
	}
	b.entries[e] = now
	b.queue = append(b.queue, detection{e: e, at: now})
	b.indexEntry(e)
}

func (b *LostBuffer) evictOldest() {
	for {
		d := b.queue[b.head]
		b.head++
		b.maybeCompact()
		if _, ok := b.entries[d.e]; ok {
			b.dropEntry(d.e)
			return
		}
	}
}

// maybeCompact reclaims the consumed queue prefix in place once it
// dominates the slice, keeping both cursors consistent.
func (b *LostBuffer) maybeCompact() {
	if b.head <= 4096 || b.head*2 <= len(b.queue) {
		return
	}
	n := copy(b.queue, b.queue[b.head:])
	b.queue = b.queue[:n]
	if b.exp < b.head {
		b.exp = b.head
	}
	b.exp -= b.head
	b.head = 0
}

// indexEntry inserts e into the global, per-pattern, and per-source
// digest indexes.
func (b *LostBuffer) indexEntry(e wire.LostEntry) {
	b.all.insert(e)
	pv := b.byPat[e.Pattern]
	if pv == nil {
		pv = &digestView{}
		b.byPat[e.Pattern] = pv
	}
	if len(pv.items) == 0 {
		b.patsStale = true
		b.patSet.Add(e.Pattern)
	}
	pv.insert(e)
	sv := b.bySrc[e.Source]
	if sv == nil {
		sv = &digestView{}
		b.bySrc[e.Source] = sv
	}
	if len(sv.items) == 0 {
		b.srcsStale = true
	}
	sv.insert(e)
}

// dropEntry removes e from the entry map and every digest index. The
// per-pattern and per-source views are kept (empty) for reuse; only the
// distinct-pattern/source lists are invalidated when a view empties.
func (b *LostBuffer) dropEntry(e wire.LostEntry) {
	delete(b.entries, e)
	b.all.remove(e)
	if pv := b.byPat[e.Pattern]; pv != nil {
		pv.remove(e)
		if len(pv.items) == 0 {
			b.patsStale = true
			b.patSet.Remove(e.Pattern)
		}
	}
	if sv := b.bySrc[e.Source]; sv != nil {
		sv.remove(e)
		if len(sv.items) == 0 {
			b.srcsStale = true
		}
	}
}

// Remove deletes an entry (the event was recovered) and reports whether
// it was outstanding.
func (b *LostBuffer) Remove(e wire.LostEntry) bool {
	if _, ok := b.entries[e]; !ok {
		return false
	}
	b.dropEntry(e)
	return true
}

// DetectedAt returns the detection time of an outstanding entry. It
// feeds the adaptive controller's recovery-latency estimate: the gap
// between detection and the arrival of the recovered event.
func (b *LostBuffer) DetectedAt(e wire.LostEntry) (sim.Time, bool) {
	at, ok := b.entries[e]
	return at, ok
}

// Has reports whether the entry is outstanding and fresh.
func (b *LostBuffer) Has(e wire.LostEntry, now sim.Time) bool {
	at, ok := b.entries[e]
	if !ok {
		return false
	}
	if b.expired(at, now) {
		b.dropEntry(e)
		return false
	}
	return true
}

func (b *LostBuffer) expired(at, now sim.Time) bool {
	return b.ttl > 0 && now-at > b.ttl
}

// sweep lazily expires entries. Detection times are non-decreasing in
// queue order and an entry's current detection time is always at its
// latest queue position, so every expired entry lives in the queue
// prefix ahead of the expiry cursor; the sweep advances the cursor over
// that prefix and stops at the first non-expired position. When nothing
// has expired since the last sweep this is a single comparison.
func (b *LostBuffer) sweep(now sim.Time) {
	if b.ttl <= 0 {
		return
	}
	if b.exp < b.head {
		b.exp = b.head
	}
	for b.exp < len(b.queue) {
		d := b.queue[b.exp]
		if !b.expired(d.at, now) {
			return
		}
		if at, ok := b.entries[d.e]; ok && at == d.at {
			b.dropEntry(d.e)
		}
		b.exp++
	}
}

// ForPattern returns the fresh entries whose pattern is p, in canonical
// digest order, sweeping expired ones. The returned slice is an
// immutable snapshot shared across calls; callers must not mutate it.
func (b *LostBuffer) ForPattern(p ident.PatternID, now sim.Time) []wire.LostEntry {
	b.sweep(now)
	v := b.byPat[p]
	if v == nil {
		return nil
	}
	return v.view()
}

// ForSource returns the fresh entries whose source is s, in canonical
// digest order, sweeping expired ones. The returned slice is an
// immutable snapshot shared across calls; callers must not mutate it.
func (b *LostBuffer) ForSource(s ident.NodeID, now sim.Time) []wire.LostEntry {
	b.sweep(now)
	v := b.bySrc[s]
	if v == nil {
		return nil
	}
	return v.view()
}

// All returns every fresh entry in canonical digest order. The returned
// slice is an immutable snapshot shared across calls; callers must not
// mutate it.
func (b *LostBuffer) All(now sim.Time) []wire.LostEntry {
	b.sweep(now)
	return b.all.view()
}

// PatternSet returns the distinct patterns with fresh entries as a
// bitset, sweeping expired ones first. The tiered set represents every
// pattern identifier, so the set is always exact.
func (b *LostBuffer) PatternSet(now sim.Time) ident.PatternSet {
	b.sweep(now)
	return b.patSet
}

// Patterns returns the distinct patterns with fresh entries, sorted.
// The returned slice is a cached snapshot; callers must not mutate it.
func (b *LostBuffer) Patterns(now sim.Time) []ident.PatternID {
	b.sweep(now)
	if b.patsStale || b.pats == nil {
		// Ascending bitset iteration is already sorted order.
		b.pats = b.patSet.AppendTo(make([]ident.PatternID, 0, b.patSet.Len()))
		b.patsStale = false
	}
	return b.pats
}

// Sources returns the distinct sources with fresh entries, sorted. The
// returned slice is a cached snapshot; callers must not mutate it.
func (b *LostBuffer) Sources(now sim.Time) []ident.NodeID {
	b.sweep(now)
	if b.srcsStale || b.srcs == nil {
		srcs := make([]ident.NodeID, 0, len(b.bySrc))
		for s, v := range b.bySrc {
			if len(v.items) > 0 {
				srcs = append(srcs, s)
			}
		}
		slices.Sort(srcs)
		b.srcs = srcs
		b.srcsStale = false
	}
	return b.srcs
}
