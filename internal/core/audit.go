package core

import (
	"fmt"
	"slices"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// AuditInvariants verifies the engine's internal bounds: the event
// cache respects its capacity, the push and pull index rows index
// exactly the buffered events, and the Lost buffer passes its own
// audit. It is pure — no sweep, no cache touch — so invariant monitors
// can call it mid-run without perturbing a deterministic execution.
func (e *Engine) AuditInvariants(now sim.Time) error {
	if e.buf.Len() > e.buf.Capacity() {
		return fmt.Errorf("core: node %v cache holds %d events over capacity %d",
			e.node.ID(), e.buf.Len(), e.buf.Capacity())
	}
	if err := e.auditIndex(); err != nil {
		return fmt.Errorf("core: node %v %w", e.node.ID(), err)
	}
	if err := e.lost.AuditInvariants(now); err != nil {
		return fmt.Errorf("core: node %v %w", e.node.ID(), err)
	}
	return nil
}

// auditIndex checks the index rows against the buffer: every buffered
// event present in the row of each of its patterns (push) and tags
// (pull), every entry's event buffered, and the row totals equal to
// what the buffered events imply — together, the rows index exactly the
// buffer. A push row is judged by a compacted copy of its log, never by
// compacting the log itself: its compacted prefix must ascend, its
// cached digest equal that copy, and its stale count cover the dead
// entries yet stay within the compaction point, or the log would grow
// without bound. A pull row must hold as many entries as it counts, in
// at most ¾ of its slots, each reachable from its home slot.
func (e *Engine) auditIndex() error {
	pats := 0
	live := make([][]uint64, len(e.patRows.rows))
	var scratch []uint64
	for k := range e.patRows.rows {
		r, p := &e.patRows.rows[k], e.patRows.pats[k]
		if r.sorted > len(r.log) {
			return fmt.Errorf("push index row %d has a compacted prefix of %d entries in a log of %d", p, r.sorted, len(r.log))
		}
		for i := 1; i < r.sorted; i++ {
			if r.log[i-1] >= r.log[i] {
				return fmt.Errorf("push index row %d out of order at %d: %v !< %v", p, i, keyID(r.log[i-1]), keyID(r.log[i]))
			}
		}
		if 4*r.stale > len(r.log) {
			return fmt.Errorf("push index row %d counts %d stale entries in a log of %d, past its compaction point", p, r.stale, len(r.log))
		}
		live[k] = r.live(nil, e.buf, &scratch)
		if dead := len(r.log) - len(live[k]); dead > r.stale {
			return fmt.Errorf("push index row %d logs %d entries that are not buffered or repeat one, but counts %d stale", p, dead, r.stale)
		}
		if r.snap != nil && !slices.EqualFunc(r.snap, live[k], func(id ident.EventID, k uint64) bool { return idKey(id) == k }) {
			return fmt.Errorf("push index row %d keeps digest %v, which its log does not", p, r.snap)
		}
		pats += len(live[k])
	}
	tags := 0
	for k, r := range e.tagRows.rows {
		p, t, n := e.tagRows.pats[k], r[:cap(r)], 0
		for i, te := range t {
			if te.pseq == 0 {
				continue
			}
			n++
			if got, ok := r.get(te.src, te.pseq); !ok || got != te.eseq {
				return fmt.Errorf("pull index row %d holds %+v out of its probe run at slot %d", p, te, i)
			}
			if id := (ident.EventID{Source: te.src, Seq: te.eseq}); !e.buf.Has(id) {
				return fmt.Errorf("pull index row %d holds %v, which is not buffered", p, id)
			}
		}
		if n != len(r) || 4*n > 3*len(t) {
			return fmt.Errorf("pull index row %d holds %d entries in %d slots, counts %d", p, n, len(t), len(r))
		}
		tags += n
	}
	var err error
	wantPats, wantTags := 0, 0
	e.buf.Range(func(ev *wire.Event) {
		if err != nil {
			return
		}
		if e.needPatIdx {
			for _, p := range ev.Content {
				wantPats++
				found := false
				if i, ok := e.patRows.idx.Row(int32(p)); ok {
					_, found = slices.BinarySearch(live[i], idKey(ev.ID))
				}
				if !found {
					err = fmt.Errorf("buffered %v is missing from push index row %v", ev.ID, p)
					return
				}
			}
		}
		if e.needTagIdx {
			for _, t := range ev.Tags {
				if t.Seq == 0 {
					continue // never stamped, never indexed
				}
				wantTags++
				found := false
				if r := e.tagRows.row(t.Pattern); r != nil {
					eseq, ok := r.get(ev.ID.Source, t.Seq)
					found = ok && eseq == ev.ID.Seq
				}
				if !found {
					err = fmt.Errorf("buffered %v is missing from pull index row %v under %v", ev.ID, t.Pattern, t)
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	if pats != wantPats {
		return fmt.Errorf("push index rows hold %d entries, the buffered events imply %d", pats, wantPats)
	}
	if tags != wantTags {
		return fmt.Errorf("pull index rows hold %d entries, the buffered events imply %d", tags, wantTags)
	}
	return nil
}

// AuditInvariants verifies the buffer's structural invariants: the
// entry count respects the capacity bound; every pattern row is sorted,
// duplicate-free, reached through the pattern index and mirrored by the
// pattern set; the rows' total and per-source counts match the
// buffer's counters; the detection queue is time-ordered with its
// cursors in bounds; and no entry outlived its TTL beyond what the lazy
// sweep is allowed to defer (an expired entry may linger in the
// internal state, but must sit at a queue position the next sweep will
// visit, so it can never be served). The method is pure: unlike the
// read path it never sweeps, so it is safe at any point of a
// deterministic run.
func (b *LostBuffer) AuditInvariants(now sim.Time) error {
	if b.capacity > 0 && b.n > b.capacity {
		return fmt.Errorf("lost buffer holds %d entries over capacity %d", b.n, b.capacity)
	}
	total := 0
	perSrc := make([]int, len(b.bySrc))
	for r := range b.byPat {
		row := &b.byPat[r]
		if got, ok := b.patIdx.Row(int32(row.pat)); !ok || got != r {
			return fmt.Errorf("lost buffer pattern index does not lead to row %d: it holds foreign pattern %v", r, row.pat)
		}
		if b.patSet.Has(row.pat) != (len(row.items) > 0) {
			return fmt.Errorf("lost buffer pattern set disagrees with the %d entries of pattern %v", len(row.items), row.pat)
		}
		for i, it := range row.items {
			if i > 0 && row.items[i-1].key() >= it.key() {
				return fmt.Errorf("lost buffer pattern %v row out of order at %d: %+v !< %+v", row.pat, i, row.items[i-1], it)
			}
			s, ok := b.srcIdx.Row(int32(it.src))
			if !ok {
				return fmt.Errorf("lost buffer pattern %v row holds %+v, absent from the source index", row.pat, it)
			}
			perSrc[s]++
		}
		total += len(row.items)
	}
	if total != b.n {
		return fmt.Errorf("lost buffer pattern rows hold %d entries, the buffer counts %d", total, b.n)
	}
	for r, sc := range b.bySrc {
		if got, ok := b.srcIdx.Row(int32(sc.src)); !ok || got != r {
			return fmt.Errorf("lost buffer source index does not lead to row %d: it holds foreign source %v", r, sc.src)
		}
		if sc.n != perSrc[r] {
			return fmt.Errorf("lost buffer source %v counts %d entries, the pattern rows hold %d", sc.src, sc.n, perSrc[r])
		}
	}
	return b.auditQueue(now)
}

// auditQueue checks the detection queue: cursors in bounds, detection
// times non-decreasing (the property the lazy expiry sweep relies on),
// every outstanding entry's current detection time present at some
// queue position at or past the eviction cursor, and every expired
// entry still reachable by a future sweep (position ≥ the expiry
// cursor).
func (b *LostBuffer) auditQueue(now sim.Time) error {
	if b.head < 0 || b.head > len(b.queue) {
		return fmt.Errorf("lost buffer eviction cursor %d outside queue [0,%d]", b.head, len(b.queue))
	}
	if b.exp < 0 || b.exp > len(b.queue) {
		return fmt.Errorf("lost buffer expiry cursor %d outside queue [0,%d]", b.exp, len(b.queue))
	}
	for i := 1; i < len(b.queue); i++ {
		if b.queue[i].at < b.queue[i-1].at {
			return fmt.Errorf("lost buffer detection queue time went backwards at %d: %v after %v",
				i, b.queue[i].at, b.queue[i-1].at)
		}
	}
	sweepFrom := b.exp
	if sweepFrom < b.head {
		sweepFrom = b.head
	}
	current := make(map[wire.LostEntry]int, b.n)
	for i := b.head; i < len(b.queue); i++ {
		d := b.queue[i]
		if _, _, ok := b.live(d); ok {
			current[d.e] = i
		}
	}
	for _, row := range b.byPat {
		for _, it := range row.items {
			e := wire.LostEntry{Source: it.src, Pattern: row.pat, Seq: it.seq}
			i, ok := current[e]
			if !ok {
				return fmt.Errorf("lost buffer entry %+v (detected %v) has no live queue position past cursor %d",
					e, it.at, b.head)
			}
			if b.expired(it.at, now) && i < sweepFrom {
				return fmt.Errorf("lost buffer entry %+v expired at %v but sits at swept position %d (< %d): unreachable by sweep",
					e, it.at+b.ttl, i, sweepFrom)
			}
		}
	}
	return nil
}
