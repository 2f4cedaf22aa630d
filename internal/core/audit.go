package core

import (
	"fmt"

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

// auditIndex checks the index rows against the buffer: every row
// strictly ascending (sorted and duplicate-free), every entry's event
// buffered, every buffered event present in the row of each of its
// patterns (push) and tags (pull), and the row totals equal to what the
// buffered events imply — together, the rows index exactly the buffer.
func (e *Engine) auditIndex() error {
	pats := 0
	for k, r := range e.patRows.rows {
		p := e.patRows.pats[k]
		for i, id := range r.ids {
			if i > 0 && !r.ids[i-1].Less(id) {
				return fmt.Errorf("push index row %d out of order at %d: %v !< %v", p, i, r.ids[i-1], id)
			}
			if !e.buf.Has(id) {
				return fmt.Errorf("push index row %d holds %v, which is not buffered", p, id)
			}
		}
		pats += len(r.ids)
	}
	tags := 0
	for k, r := range e.tagRows.rows {
		p := e.tagRows.pats[k]
		for i, t := range r {
			if i > 0 && r[i-1].key() >= t.key() {
				return fmt.Errorf("pull index row %d out of order at %d: %+v !< %+v", p, i, r[i-1], t)
			}
			if id := (ident.EventID{Source: t.src, Seq: t.eseq}); !e.buf.Has(id) {
				return fmt.Errorf("pull index row %d holds %v, which is not buffered", p, id)
			}
		}
		tags += len(r)
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
				if !e.pushIndexed(p, ev.ID) {
					err = fmt.Errorf("buffered %v is missing from push index row %v", ev.ID, p)
					return
				}
			}
		}
		if e.needTagIdx {
			for _, t := range ev.Tags {
				wantTags++
				if !e.tagIndexed(t.Pattern, ev.ID.Source, t.Seq, ev.ID.Seq) {
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

// pushIndexed reports whether pattern p's push row holds id.
func (e *Engine) pushIndexed(p ident.PatternID, id ident.EventID) bool {
	r := e.patRows.row(p)
	if r == nil {
		return false
	}
	i := r.search(idKey(id))
	return i < len(r.ids) && r.ids[i] == id
}

// tagIndexed reports whether pattern p's pull row maps (src, pseq) to the
// event sequence eseq.
func (e *Engine) tagIndexed(p ident.PatternID, src ident.NodeID, pseq, eseq uint32) bool {
	rp := e.tagRows.row(p)
	if rp == nil {
		return false
	}
	r := *rp
	i := r.seek(0, tagKey(src, pseq))
	return i < len(r) && r[i].src == src && r[i].pseq == pseq && r[i].eseq == eseq
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
