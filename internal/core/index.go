package core

import (
	"slices"

	"repro/internal/ident"
)

// The engine's two per-event indices hold one row per pattern the
// engine indexed, reached through an ident.RowIndex (patternRows), so
// neither probes a map on the event path and an engine's rows follow
// the patterns it saw, not the largest pattern id. Both order and
// search their entries by one packed integer key (tagKey).

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

// patRow is one pattern's push index: the buffered events whose content
// matches the pattern, in EventID.Less order — the order of a push
// digest on the wire.
//
// A row is handed out as the push digest itself, copy-on-write: digest
// marks the row shared and returns a cap-limited view, and the next
// mutation copies the row before touching it. A digest embedded in a
// gossip message therefore never changes, however long the message is
// in flight, and a row that did not change between two rounds costs
// nothing to gossip again.
type patRow struct {
	ids    []ident.EventID
	shared bool
}

// idKey is id's position in EventID.Less order as one integer.
func idKey(id ident.EventID) uint64 { return tagKey(id.Source, id.Seq) }

// search returns the first position whose id's key is ≥ key.
func (r *patRow) search(key uint64) int {
	lo, hi := 0, len(r.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idKey(r.ids[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// add inserts id unless present.
func (r *patRow) add(id ident.EventID) {
	key := idKey(id)
	n := len(r.ids)
	if n == 0 || idKey(r.ids[n-1]) < key {
		r.own()
		r.ids = append(r.ids, id)
		return
	}
	i := r.search(key)
	if r.ids[i] == id {
		return
	}
	r.own()
	r.ids = slices.Insert(r.ids, i, id)
}

// remove deletes id if present.
func (r *patRow) remove(id ident.EventID) {
	i := r.search(idKey(id))
	if i == len(r.ids) || r.ids[i] != id {
		return
	}
	r.own()
	r.ids = slices.Delete(r.ids, i, i+1)
}

// digest returns the row as an immutable push digest (nil when empty).
func (r *patRow) digest() []ident.EventID {
	if len(r.ids) == 0 {
		return nil
	}
	r.shared = true
	return r.ids[:len(r.ids):len(r.ids)]
}

// own gives the row a private copy of its entries if a digest still
// refers to them.
func (r *patRow) own() {
	if r.shared {
		r.ids = append(make([]ident.EventID, 0, len(r.ids)+len(r.ids)/4+4), r.ids...)
		r.shared = false
	}
}

// tagEnt is one pull-index entry: the buffered event (src, eseq) carries
// the sequence tag pseq for the row's pattern.
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

func (t tagEnt) key() uint64 { return tagKey(t.src, t.pseq) }

// tagRow is one pattern's pull index, sorted by key. It is never handed
// out, so it is mutated in place.
type tagRow []tagEnt

// put maps (src, pseq) to the event sequence eseq, overwriting an
// existing mapping.
func (r *tagRow) put(src ident.NodeID, pseq, eseq uint32) {
	key := tagKey(src, pseq)
	row := *r
	n := len(row)
	if n == 0 || row[n-1].key() < key {
		*r = append(row, tagEnt{src, pseq, eseq})
		return
	}
	i := row.seek(0, key)
	if row[i].key() == key {
		row[i].eseq = eseq
		return
	}
	*r = slices.Insert(row, i, tagEnt{src, pseq, eseq})
}

// del removes the entry for (src, pseq) if present.
func (r *tagRow) del(src ident.NodeID, pseq uint32) {
	key := tagKey(src, pseq)
	if i := r.seek(0, key); i < len(*r) && (*r)[i].key() == key {
		r.deleteAt(i)
	}
}

func (r *tagRow) deleteAt(i int) { *r = slices.Delete(*r, i, i+1) }

// seek returns the first position at or after from whose key is ≥ key
// (len(r) if none). The two ends are checked first, so a probe that
// falls before the cursor or past the row's last entry — most of a
// serve's misses — costs one compare.
func (r tagRow) seek(from int, key uint64) int {
	n := len(r)
	if from >= n || r[n-1].key() < key {
		return n
	}
	if r[from].key() >= key {
		return from
	}
	// Invariant: r[lo].key() < key ≤ r[hi].key().
	lo, hi := from, n-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].key() < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
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
