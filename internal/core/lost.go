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

// lostItem is one outstanding entry of a pattern row: the lost event's
// source and per-pattern sequence number, and the entry's current
// detection time.
type lostItem struct {
	src ident.NodeID
	seq uint32
	at  sim.Time
}

func (it lostItem) key() uint64 { return tagKey(it.src, it.seq) }

// lostRow is one pattern's outstanding entries, sorted by key — the
// canonical digest order within a pattern — plus the cached ForPattern
// snapshot.
type lostRow struct {
	pat   ident.PatternID
	items []lostItem
	snap  []wire.LostEntry // nil when stale
}

// search returns the first position whose key is ≥ key.
func (r *lostRow) search(key uint64) int {
	lo, hi := 0, len(r.items)
	if hi > 0 && r.items[hi-1].key() < key {
		return hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.items[mid].key() < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// view returns the row as an immutable snapshot (nil when empty).
func (r *lostRow) view() []wire.LostEntry {
	if len(r.items) == 0 {
		return nil
	}
	if r.snap == nil {
		r.snap = make([]wire.LostEntry, len(r.items))
		for i, it := range r.items {
			r.snap[i] = wire.LostEntry{Source: it.src, Pattern: r.pat, Seq: it.seq}
		}
	}
	return r.snap
}

// srcCount is one source's number of outstanding entries plus its cached
// ForSource snapshot. The entries themselves live in the pattern rows.
type srcCount struct {
	src  ident.NodeID
	n    int
	snap []wire.LostEntry // nil when stale
}

// detection is one Add recorded in FIFO order. A detection is live
// while its entry is outstanding with that detection time (the pattern
// row carries the current one); it becomes stale when the entry is
// removed, expires or is evicted. Eviction and the expiry sweep skip
// stale positions, and maybeCompact discards them.
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
// Entries live in one sorted row per pattern, next to their detection
// times; patterns and sources reach their rows through ident.RowIndex,
// so no operation probes a Go map and any identifier is accepted.
// Digest reads (All, ForPattern, ForSource, Patterns, Sources) return
// cached snapshots: a gossip round that finds the buffer unchanged
// since the last round performs no allocation and no sorting.
type LostBuffer struct {
	capacity int
	ttl      sim.Time
	n        int         // outstanding entries
	queue    []detection // Add order; may hold stale positions
	head     int         // eviction cursor (FIFO)
	exp      int         // expiry cursor; queue[:exp] is fully expired

	patIdx ident.RowIndex // pattern -> position in byPat
	byPat  []lostRow
	srcIdx ident.RowIndex // source -> position in bySrc
	bySrc  []srcCount
	all    []wire.LostEntry // cached All snapshot; nil when stale

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
// entries for ttl each. Its rows grow with the losses actually
// detected; most buffers of a large run stay near-empty.
func NewLostBuffer(capacity int, ttl sim.Time) *LostBuffer {
	return &LostBuffer{capacity: capacity, ttl: ttl}
}

// Len returns the number of outstanding entries (including any that
// have expired but were not yet swept).
func (b *LostBuffer) Len() int { return b.n }

// Cap returns the most entries the buffer holds.
func (b *LostBuffer) Cap() int { return b.capacity }

// find returns e's pattern row (nil when the pattern has none) and the
// position of e, or where e belongs, in it.
func (b *LostBuffer) find(e wire.LostEntry) (*lostRow, int, bool) {
	r, ok := b.patIdx.Row(int32(e.Pattern))
	if !ok {
		return nil, 0, false
	}
	row := &b.byPat[r]
	key := tagKey(e.Source, e.Seq)
	i := row.search(key)
	return row, i, i < len(row.items) && row.items[i].key() == key
}

// Add records a newly detected loss. Re-detecting an outstanding entry
// is a no-op. Detection times must be non-decreasing across Adds (both
// the kernel clock and the live node's monotonic clock guarantee this);
// the lazy expiry sweep relies on it.
func (b *LostBuffer) Add(e wire.LostEntry, now sim.Time) {
	if _, _, ok := b.find(e); ok {
		return
	}
	for b.n >= b.capacity {
		b.evictOldest()
	}
	b.queue = append(b.queue, detection{e: e, at: now})

	r, added := b.patIdx.Add(int32(e.Pattern))
	if added {
		b.byPat = append(b.byPat, lostRow{})
		b.byPat[r].pat = e.Pattern
	}
	row := &b.byPat[r]
	if len(row.items) == 0 {
		b.patsStale = true
		b.patSet.Add(e.Pattern)
	}
	it := lostItem{src: e.Source, seq: e.Seq, at: now}
	if i := row.search(it.key()); i == len(row.items) {
		row.items = append(row.items, it)
	} else {
		row.items = slices.Insert(row.items, i, it)
	}
	row.snap = nil

	s, added := b.srcIdx.Add(int32(e.Source))
	if added {
		b.bySrc = append(b.bySrc, srcCount{})
		b.bySrc[s].src = e.Source
	}
	sc := &b.bySrc[s]
	if sc.n == 0 {
		b.srcsStale = true
	}
	sc.n++
	sc.snap = nil
	b.all = nil
	b.n++
	b.maybeCompact()
}

// dropAt removes entry i of row from the row and the source counts.
func (b *LostBuffer) dropAt(row *lostRow, i int) {
	src := row.items[i].src
	row.items = slices.Delete(row.items, i, i+1)
	row.snap = nil
	if len(row.items) == 0 {
		b.patsStale = true
		b.patSet.Remove(row.pat)
	}
	s, _ := b.srcIdx.Row(int32(src))
	sc := &b.bySrc[s]
	sc.n--
	sc.snap = nil
	if sc.n == 0 {
		b.srcsStale = true
	}
	b.all = nil
	b.n--
}

// live returns d's entry and its row position when d is live.
func (b *LostBuffer) live(d detection) (*lostRow, int, bool) {
	row, i, ok := b.find(d.e)
	return row, i, ok && row.items[i].at == d.at
}

// evictOldest drops the entry of the oldest live queue position.
func (b *LostBuffer) evictOldest() {
	for {
		d := b.queue[b.head]
		b.head++
		if row, i, ok := b.live(d); ok {
			b.dropAt(row, i)
			return
		}
	}
}

// maybeCompact rewrites the detection queue once it holds more than
// twice as many positions as there are outstanding entries (plus a
// floor that keeps small buffers from compacting constantly): the
// consumed and swept prefix and every stale position go, the live
// positions keep their order. Each outstanding entry has one live
// position, so the queue stays bounded however long the buffer runs
// between evictions — recovered losses leave only stale positions
// behind.
func (b *LostBuffer) maybeCompact() {
	if len(b.queue) <= 2*b.n+64 {
		return
	}
	live := b.queue[:0]
	for _, d := range b.queue[max(b.head, b.exp):] {
		if _, _, ok := b.live(d); ok {
			live = append(live, d)
		}
	}
	b.queue = live
	b.head, b.exp = 0, 0
}

// Remove deletes an entry (the event was recovered) and reports whether
// it was outstanding.
func (b *LostBuffer) Remove(e wire.LostEntry) bool {
	row, i, ok := b.find(e)
	if ok {
		b.dropAt(row, i)
	}
	return ok
}

// DetectedAt returns the detection time of an outstanding entry. It
// feeds the adaptive controller's recovery-latency estimate: the gap
// between detection and the arrival of the recovered event.
func (b *LostBuffer) DetectedAt(e wire.LostEntry) (sim.Time, bool) {
	row, i, ok := b.find(e)
	if !ok {
		return 0, false
	}
	return row.items[i].at, true
}

// Has reports whether the entry is outstanding and fresh.
func (b *LostBuffer) Has(e wire.LostEntry, now sim.Time) bool {
	row, i, ok := b.find(e)
	if !ok {
		return false
	}
	if b.expired(row.items[i].at, now) {
		b.dropAt(row, i)
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
		if row, i, ok := b.live(d); ok {
			b.dropAt(row, i)
		}
		b.exp++
	}
}

// ForPattern returns the fresh entries whose pattern is p, in canonical
// digest order, sweeping expired ones. The returned slice is an
// immutable snapshot shared across calls; callers must not mutate it.
func (b *LostBuffer) ForPattern(p ident.PatternID, now sim.Time) []wire.LostEntry {
	b.sweep(now)
	r, ok := b.patIdx.Row(int32(p))
	if !ok {
		return nil
	}
	return b.byPat[r].view()
}

// ForSource returns the fresh entries whose source is s, in canonical
// digest order, sweeping expired ones. The returned slice is an
// immutable snapshot shared across calls; callers must not mutate it.
func (b *LostBuffer) ForSource(s ident.NodeID, now sim.Time) []wire.LostEntry {
	b.sweep(now)
	r, ok := b.srcIdx.Row(int32(s))
	if !ok || b.bySrc[r].n == 0 {
		return nil
	}
	sc := &b.bySrc[r]
	if sc.snap == nil {
		// Gathered pattern by ascending pattern: each row holds the
		// source's entries as one run in sequence order.
		snap := make([]wire.LostEntry, 0, sc.n)
		for _, p := range b.sortedPatterns() {
			pr, _ := b.patIdx.Row(int32(p))
			row := &b.byPat[pr]
			for i := row.search(tagKey(s, 0)); i < len(row.items) && row.items[i].src == s; i++ {
				snap = append(snap, wire.LostEntry{Source: s, Pattern: p, Seq: row.items[i].seq})
			}
		}
		sc.snap = snap
	}
	return sc.snap
}

// All returns every fresh entry in canonical digest order. The returned
// slice is an immutable snapshot shared across calls; callers must not
// mutate it.
func (b *LostBuffer) All(now sim.Time) []wire.LostEntry {
	b.sweep(now)
	if b.n == 0 {
		return nil
	}
	if b.all == nil {
		all := make([]wire.LostEntry, 0, b.n)
		for _, row := range b.byPat {
			for _, it := range row.items {
				all = append(all, wire.LostEntry{Source: it.src, Pattern: row.pat, Seq: it.seq})
			}
		}
		slices.SortFunc(all, compareLost)
		b.all = all
	}
	return b.all
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
	return b.sortedPatterns()
}

func (b *LostBuffer) sortedPatterns() []ident.PatternID {
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
		for _, sc := range b.bySrc {
			if sc.n > 0 {
				srcs = append(srcs, sc.src)
			}
		}
		slices.Sort(srcs)
		b.srcs = srcs
		b.srcsStale = false
	}
	return b.srcs
}
