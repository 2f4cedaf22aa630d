package core

import (
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/ident"
)

// The engine's two per-event indices hold one row per pattern the
// engine indexed, reached through an ident.RowIndex (patternRows), so
// neither probes a map on the event path and an engine's rows follow
// the patterns it saw, not the largest pattern id. Neither searches nor
// moves entries on index or eviction: the push row is an append-only
// log sorted when a digest is asked for, the pull row a hash table.

// patternRows holds one row per pattern, in order of first use.
type patternRows[R any] struct {
	idx  ident.RowIndex
	pats []ident.PatternID // pats[i] is the pattern of rows[i]
	rows []R
}

// row returns p's row, nil when p has none.
func (t *patternRows[R]) row(p ident.PatternID) *R {
	i, ok := t.idx.Row(int32(p))
	if !ok {
		return nil
	}
	return &t.rows[i]
}

// add returns p's row, creating an empty one when p has none.
func (t *patternRows[R]) add(p ident.PatternID) *R {
	i, added := t.idx.Add(int32(p))
	if added {
		var zero R
		t.rows = append(t.rows, zero)
		t.pats = append(t.pats, p)
	}
	return &t.rows[i]
}

// growRows extends rows so that index i — a NodeID — is valid, in
// PatternSetCap steps. Growth allocates a new array; rows never shrink.
func growRows[R any](rows []R, i ident.NodeID) []R {
	if int(i) < len(rows) {
		return rows
	}
	grown := make([]R, (int(i)+ident.PatternSetCap)&^(ident.PatternSetCap-1))
	copy(grown, rows)
	return grown
}

// patRow is one pattern's push index: an append-only log of the events
// indexed under the pattern, and the push digest built from it on
// demand.
//
// Index appends to the log and eviction only counts one stale entry, so
// neither searches nor moves entries. A digest keeps the logged ids the
// buffer still holds, sorted in EventID.Less order — the order of a push
// digest on the wire — without repeats; the log is rewritten to exactly
// those, and the digest is kept until the row changes, so an unchanged
// row is gossiped again for nothing. The log is compacted the same way,
// in place, once its stale entries exceed a quarter of it. It holds ids
// as idKeys, so sorting compares integers, and only the entries
// appended since the last compaction are sorted: the rest is merged.
//
// A digest is a fresh array handed out cap-limited: gossip messages
// embed it and outlive the round, and nothing writes into it again. The
// log never shares its array with a digest.
type patRow struct {
	log    []uint64        // idKeys; log[:sorted] ascends without repeats
	sorted int             // length of the compacted prefix of log
	stale  int             // entries evicted since the last compaction: at least the dead ones
	snap   []ident.EventID // the last digest; nil once the row changed
}

// idKey is id's position in EventID.Less order as one integer.
func idKey(id ident.EventID) uint64 { return tagKey(id.Source, id.Seq) }

// keyID inverts idKey.
func keyID(k uint64) ident.EventID {
	return ident.EventID{Source: ident.NodeID(uint32(k>>32) ^ 1<<31), Seq: uint32(k)}
}

// add logs id, which the buffer has just taken. The content of an event
// is a set, so id repeats the last entry only if a forged event names a
// pattern twice.
func (r *patRow) add(id ident.EventID) {
	k := idKey(id)
	if n := len(r.log); n > 0 && r.log[n-1] == k {
		return
	}
	r.log = append(r.log, k)
	r.snap = nil
}

// remove counts one logged id as evicted from buf; scratch is the
// engine's merge buffer.
func (r *patRow) remove(buf *cache.Cache, scratch *[]uint64) {
	r.stale++
	r.snap = nil
	if r.stale*4 > len(r.log) {
		r.compact(buf, scratch)
	}
}

// digest returns the row as an immutable push digest (nil when empty),
// rebuilding it only if the row changed since the last one.
func (r *patRow) digest(buf *cache.Cache, scratch *[]uint64) []ident.EventID {
	if r.snap == nil && len(r.log) > 0 {
		r.compact(buf, scratch)
		if n := len(r.log); n > 0 {
			r.snap = make([]ident.EventID, n)
			for i, k := range r.log {
				r.snap[i] = keyID(k)
			}
		}
	}
	return r.snap
}

// compact rewrites the log to the ids buf still holds.
func (r *patRow) compact(buf *cache.Cache, scratch *[]uint64) {
	r.log = r.live(r.log[:0], buf, scratch)
	r.sorted, r.stale = len(r.log), 0
}

// live writes the logged ids buf still holds, ascending without
// repeats, into dst — nil for a copy, or the log's own r.log[:0]: the
// filter writes no entry it has not read. The entries kept from the
// compacted prefix stay in order; the rest are sorted and merged in
// through scratch.
func (r *patRow) live(dst []uint64, buf *cache.Cache, scratch *[]uint64) []uint64 {
	mid := 0 // end of the entries kept from the prefix
	for i, k := range r.log {
		if buf.Has(keyID(k)) {
			dst = append(dst, k)
			if i < r.sorted {
				mid = len(dst)
			}
		}
	}
	head, tail := dst[:mid], dst[mid:]
	if len(tail) == 0 {
		return dst
	}
	slices.Sort(tail)
	if len(head) == 0 || head[len(head)-1] < tail[0] {
		return slices.Compact(dst)
	}
	m := (*scratch)[:0]
	for i, j := 0, 0; i < len(head) || j < len(tail); {
		var k uint64
		if j == len(tail) || i < len(head) && head[i] <= tail[j] {
			k, i = head[i], i+1
		} else {
			k, j = tail[j], j+1
		}
		if len(m) == 0 || m[len(m)-1] != k {
			m = append(m, k)
		}
	}
	*scratch = m
	return append(dst[:0], m...)
}

// tagEnt is one pull-index entry: the buffered event (src, eseq) carries
// the sequence tag pseq for the row's pattern. pseq 0 marks a free slot:
// dispatchers stamp tags from 1.
type tagEnt struct {
	src  ident.NodeID
	pseq uint32
	eseq uint32
}

// tagKey orders (source, sequence) pairs as the canonical digest order
// and EventID.Less do — source, then sequence — in one integer compare.
// Flipping the sign bit maps the signed source onto an unsigned order.
func tagKey(src ident.NodeID, pseq uint32) uint64 {
	return uint64(uint32(src)^1<<31)<<32 | uint64(pseq)
}

// tagRow is one pattern's pull index: an open-addressed table of
// entries keyed by (src, pseq), probed linearly. The table spans the
// slice's capacity and its length counts the live entries, so a row is
// one slice header. The load stays at most ¾ — the table grows by half
// (to the allocator's size class) past it, from two slots — so every
// probe meets a free slot. Deletion shifts the rest of the probe run
// back, leaving no tombstones. The row is never handed out, so it is
// mutated in place.
type tagRow []tagEnt

// home returns the first slot probed for (src, pseq) in a table of n
// slots: the hashed key scaled to [0, n), so n need not be a power of
// two.
func home(src ident.NodeID, pseq uint32, n int) int {
	hi, _ := bits.Mul64(tagKey(src, pseq)*0x9e3779b97f4a7c15, uint64(n))
	return int(hi)
}

// slot returns the slot of table t that holds (src, pseq), or the free
// slot that ends its probe run.
func slot(t []tagEnt, src ident.NodeID, pseq uint32) int {
	i := home(src, pseq, len(t))
	for t[i].pseq != 0 && (t[i].pseq != pseq || t[i].src != src) {
		if i++; i == len(t) {
			i = 0
		}
	}
	return i
}

// get returns the event sequence (src, pseq) maps to.
func (r tagRow) get(src ident.NodeID, pseq uint32) (uint32, bool) {
	if pseq == 0 || len(r) == 0 {
		return 0, false
	}
	t := r[:cap(r)]
	e := t[slot(t, src, pseq)]
	return e.eseq, e.pseq != 0
}

// put maps (src, pseq) to the event sequence eseq, overwriting an
// existing mapping. Sequence 0 is never stamped and is not indexed.
func (r *tagRow) put(src ident.NodeID, pseq, eseq uint32) {
	if pseq == 0 {
		return
	}
	if (len(*r)+1)*4 > cap(*r)*3 {
		r.grow()
	}
	t := (*r)[:cap(*r)]
	i := slot(t, src, pseq)
	if t[i].pseq == 0 {
		*r = t[:len(*r)+1]
	}
	t[i] = tagEnt{src, pseq, eseq}
}

// grow rehashes the row into a table half as large again.
func (r *tagRow) grow() {
	t := slices.Grow(tagRow(nil), max(2, (3*cap(*r)+1)/2))
	t = t[:cap(t)]
	for _, e := range (*r)[:cap(*r)] {
		if e.pseq != 0 {
			t[slot(t, e.src, e.pseq)] = e
		}
	}
	*r = t[:len(*r)]
}

// del removes the entry for (src, pseq) if present. Each later entry of
// the probe run moves back into the hole unless its home slot lies
// between the hole and itself, so every entry stays reachable.
func (r *tagRow) del(src ident.NodeID, pseq uint32) {
	if pseq == 0 || len(*r) == 0 {
		return
	}
	t := (*r)[:cap(*r)]
	n := len(t)
	i := slot(t, src, pseq)
	if t[i].pseq == 0 {
		return
	}
	for j := i; ; {
		if j++; j == n {
			j = 0
		}
		if t[j].pseq == 0 {
			break
		}
		h := home(t[j].src, t[j].pseq, n)
		if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
			t[i] = t[j]
			i = j
		}
	}
	t[i] = tagEnt{}
	*r = t[:len(*r)-1]
}

// highMarks holds the loss-detection high-water marks, one per
// (pattern, source): a row for each pattern the node has seen tagged
// events of — its local patterns, a handful — each row indexed by
// source.
type highMarks struct{ patternRows[[]uint32] }

// get returns the highest sequence number of pattern p seen from src,
// 0 before the first.
func (h *highMarks) get(p ident.PatternID, src ident.NodeID) uint32 {
	r := h.row(p)
	if r == nil || int(src) >= len(*r) {
		return 0
	}
	return (*r)[src]
}

func (h *highMarks) set(p ident.PatternID, src ident.NodeID, seq uint32) {
	r := h.add(p)
	*r = growRows(*r, src)
	(*r)[src] = seq
}
