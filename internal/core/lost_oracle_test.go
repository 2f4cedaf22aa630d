package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// mapDigestView is one incrementally maintained digest index: a slab of
// entries kept in canonical digest order, plus a lazily materialized
// snapshot that is handed to callers.
//
// The slab is mutated in place (binary-search insert/delete, no
// re-sort); the snapshot is immutable once handed out. Gossip messages
// embed the snapshot and may outlive the current buffer state (the
// simulator delivers them at a later virtual time), so a mutation never
// touches a previously returned snapshot — it only marks the cached one
// stale, and the next read clones the slab afresh.
type mapDigestView struct {
	items []wire.LostEntry // authoritative, sorted
	snap  []wire.LostEntry // cached immutable snapshot; nil when stale
}

func (v *mapDigestView) insert(e wire.LostEntry) {
	i, _ := slices.BinarySearchFunc(v.items, e, compareLost)
	v.items = slices.Insert(v.items, i, e)
	v.snap = nil
}

func (v *mapDigestView) remove(e wire.LostEntry) {
	i, ok := slices.BinarySearchFunc(v.items, e, compareLost)
	if !ok {
		return
	}
	v.items = slices.Delete(v.items, i, i+1)
	v.snap = nil
}

// view returns the current entries as an immutable snapshot. Callers
// must not mutate it; it may be embedded directly in gossip messages.
func (v *mapDigestView) view() []wire.LostEntry {
	if len(v.items) == 0 {
		return nil
	}
	if v.snap == nil {
		v.snap = slices.Clone(v.items)
	}
	return v.snap
}

// mapDetection is one Add recorded in FIFO order. A detection becomes
// stale when its entry is removed or re-added later (the map carries
// the current detection time); stale positions are skipped lazily.
type mapDetection struct {
	e  wire.LostEntry
	at sim.Time
}

// mapLostBuffer is the map-backed LostBuffer the pattern rows replaced,
// kept verbatim (names changed) as the oracle of
// TestLostBufferMatchesMapOracle. One difference is by design: its
// evictOldest evicts the entry named at the oldest queue position even
// when that position is stale, which can only matter for an entry
// re-added after it left the buffer — engines never do that, because a
// loss is detected only above a high-water mark that never falls.
type mapLostBuffer struct {
	capacity int
	ttl      sim.Time
	entries  map[wire.LostEntry]sim.Time // current detection time
	queue    []mapDetection              // Add order; may hold stale positions
	head     int                         // eviction cursor (FIFO)
	exp      int                         // expiry cursor; queue[:exp] is fully expired

	all   mapDigestView
	byPat map[ident.PatternID]*mapDigestView
	bySrc map[ident.NodeID]*mapDigestView

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

// newMapLostBuffer returns an empty buffer holding at most capacity
// entries for ttl each. The entry map starts empty and grows with the
// losses actually detected; most buffers of a large run stay near-empty.
func newMapLostBuffer(capacity int, ttl sim.Time) *mapLostBuffer {
	return &mapLostBuffer{
		capacity: capacity,
		ttl:      ttl,
		entries:  make(map[wire.LostEntry]sim.Time),
		byPat:    make(map[ident.PatternID]*mapDigestView),
		bySrc:    make(map[ident.NodeID]*mapDigestView),
	}
}

// Len returns the number of outstanding entries (including any that
// have expired but were not yet swept).
func (b *mapLostBuffer) Len() int { return len(b.entries) }

// Add records a newly detected loss. Re-detecting an outstanding entry
// is a no-op. Detection times must be non-decreasing across Adds (both
// the kernel clock and the live node's monotonic clock guarantee this);
// the lazy expiry sweep relies on it.
func (b *mapLostBuffer) Add(e wire.LostEntry, now sim.Time) {
	if _, ok := b.entries[e]; ok {
		return
	}
	for len(b.entries) >= b.capacity {
		b.evictOldest()
	}
	b.entries[e] = now
	b.queue = append(b.queue, mapDetection{e: e, at: now})
	b.indexEntry(e)
}

func (b *mapLostBuffer) evictOldest() {
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
func (b *mapLostBuffer) maybeCompact() {
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
func (b *mapLostBuffer) indexEntry(e wire.LostEntry) {
	b.all.insert(e)
	pv := b.byPat[e.Pattern]
	if pv == nil {
		pv = &mapDigestView{}
		b.byPat[e.Pattern] = pv
	}
	if len(pv.items) == 0 {
		b.patsStale = true
		b.patSet.Add(e.Pattern)
	}
	pv.insert(e)
	sv := b.bySrc[e.Source]
	if sv == nil {
		sv = &mapDigestView{}
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
func (b *mapLostBuffer) dropEntry(e wire.LostEntry) {
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
func (b *mapLostBuffer) Remove(e wire.LostEntry) bool {
	if _, ok := b.entries[e]; !ok {
		return false
	}
	b.dropEntry(e)
	return true
}

// DetectedAt returns the detection time of an outstanding entry. It
// feeds the adaptive controller's recovery-latency estimate: the gap
// between detection and the arrival of the recovered event.
func (b *mapLostBuffer) DetectedAt(e wire.LostEntry) (sim.Time, bool) {
	at, ok := b.entries[e]
	return at, ok
}

// Has reports whether the entry is outstanding and fresh.
func (b *mapLostBuffer) Has(e wire.LostEntry, now sim.Time) bool {
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

func (b *mapLostBuffer) expired(at, now sim.Time) bool {
	return b.ttl > 0 && now-at > b.ttl
}

// sweep lazily expires entries. Detection times are non-decreasing in
// queue order and an entry's current detection time is always at its
// latest queue position, so every expired entry lives in the queue
// prefix ahead of the expiry cursor; the sweep advances the cursor over
// that prefix and stops at the first non-expired position. When nothing
// has expired since the last sweep this is a single comparison.
func (b *mapLostBuffer) sweep(now sim.Time) {
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
func (b *mapLostBuffer) ForPattern(p ident.PatternID, now sim.Time) []wire.LostEntry {
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
func (b *mapLostBuffer) ForSource(s ident.NodeID, now sim.Time) []wire.LostEntry {
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
func (b *mapLostBuffer) All(now sim.Time) []wire.LostEntry {
	b.sweep(now)
	return b.all.view()
}

// PatternSet returns the distinct patterns with fresh entries as a
// bitset, sweeping expired ones first. The tiered set represents every
// pattern identifier, so the set is always exact.
func (b *mapLostBuffer) PatternSet(now sim.Time) ident.PatternSet {
	b.sweep(now)
	return b.patSet
}

// Patterns returns the distinct patterns with fresh entries, sorted.
// The returned slice is a cached snapshot; callers must not mutate it.
func (b *mapLostBuffer) Patterns(now sim.Time) []ident.PatternID {
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
func (b *mapLostBuffer) Sources(now sim.Time) []ident.NodeID {
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

// TestLostBufferMatchesMapOracle drives the row-based Lost buffer and
// the map-backed one it replaced with the same random streams of Add
// (fresh and duplicate), Remove, Has, DetectedAt and every digest read,
// under TTL expiry and capacity eviction, rebuilding both at a new
// capacity and TTL now and then, and compares every answer and Len
// after every operation. Every snapshot handed out must still read as
// it did when it was handed out at the end. As in a real run, an entry
// that has left the buffer is never detected again (until the buffers
// are rebuilt).
func TestLostBufferMatchesMapOracle(t *testing.T) {
	srcs := []ident.NodeID{ident.None, 0, 1, 2, 5, 1 << 30}
	pats := []ident.PatternID{0, 3, 127, 128, 300}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity, ttl := 8+rng.Intn(40), sim.Time(20+rng.Intn(60))
			b, o := NewLostBuffer(capacity, ttl), newMapLostBuffer(capacity, ttl)
			var now sim.Time
			used := make(map[wire.LostEntry]bool) // ever added since the last rebuild
			nextSeq := uint32(1)
			draw := func() wire.LostEntry {
				return wire.LostEntry{Source: srcs[rng.Intn(len(srcs))], Pattern: pats[rng.Intn(len(pats))], Seq: uint32(1 + rng.Intn(int(nextSeq)))}
			}
			type handed struct{ got, want []wire.LostEntry }
			var snaps []handed
			keep := func(op int, what string, got, want []wire.LostEntry) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: %s = %v, oracle %v", op, what, got, want)
				}
				snaps = append(snaps, handed{got, slices.Clone(want)})
			}
			for op := 0; op < 5000; op++ {
				now += sim.Time(rng.Intn(3))
				switch k := rng.Intn(100); {
				case k < 35: // a fresh detection
					e := draw()
					e.Seq = nextSeq
					nextSeq++
					used[e] = true
					b.Add(e, now)
					o.Add(e, now)
				case k < 40: // re-detecting an outstanding entry is a no-op
					e := draw()
					if _, out := o.entries[e]; out || !used[e] {
						used[e] = true
						b.Add(e, now)
						o.Add(e, now)
					}
				case k < 55:
					e := draw()
					if got, want := b.Remove(e), o.Remove(e); got != want {
						t.Fatalf("op %d: Remove(%+v) = %v, oracle %v", op, e, got, want)
					}
				case k < 62:
					e := draw()
					if got, want := b.Has(e, now), o.Has(e, now); got != want {
						t.Fatalf("op %d: Has(%+v) = %v, oracle %v", op, e, got, want)
					}
				case k < 67:
					e := draw()
					at, ok := b.DetectedAt(e)
					wantAt, wantOK := o.DetectedAt(e)
					if at != wantAt || ok != wantOK {
						t.Fatalf("op %d: DetectedAt(%+v) = %v, %v, oracle %v, %v", op, e, at, ok, wantAt, wantOK)
					}
				case k < 77:
					p := pats[rng.Intn(len(pats))]
					keep(op, fmt.Sprintf("ForPattern(%v)", p), b.ForPattern(p, now), o.ForPattern(p, now))
				case k < 85:
					s := srcs[rng.Intn(len(srcs))]
					keep(op, fmt.Sprintf("ForSource(%v)", s), b.ForSource(s, now), o.ForSource(s, now))
				case k < 90:
					keep(op, "All", b.All(now), o.All(now))
				case k < 93:
					if got, want := b.Patterns(now), o.Patterns(now); !slices.Equal(got, want) {
						t.Fatalf("op %d: Patterns = %v, oracle %v", op, got, want)
					}
				case k < 96:
					if got, want := b.Sources(now), o.Sources(now); !slices.Equal(got, want) {
						t.Fatalf("op %d: Sources = %v, oracle %v", op, got, want)
					}
				case k < 99:
					got, want := b.PatternSet(now), o.PatternSet(now)
					if !slices.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
						t.Fatalf("op %d: PatternSet = %v, oracle %v", op, got.AppendTo(nil), want.AppendTo(nil))
					}
				default:
					capacity, ttl = 8+rng.Intn(40), sim.Time(rng.Intn(80))
					b, o = NewLostBuffer(capacity, ttl), newMapLostBuffer(capacity, ttl)
					clear(used)
				}
				if b.Len() != o.Len() {
					t.Fatalf("op %d: Len = %d, oracle %d", op, b.Len(), o.Len())
				}
				if op%100 == 0 {
					if err := b.AuditInvariants(now); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			for i, h := range snaps {
				if !slices.Equal(h.got, h.want) {
					t.Fatalf("snapshot %d changed after it was handed out: %v, was %v", i, h.got, h.want)
				}
			}
		})
	}
}
