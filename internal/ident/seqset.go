package ident

// SeqSet is a set of event identifiers stored as one bitmap per source.
// Event identifiers are dense by construction — every source numbers its
// events 1, 2, 3, … (paper Sec. III-B) — so a dispatcher's received set
// costs one bit per sequence number in the span it has seen from each
// source, instead of one map entry per received event. The zero value is
// an empty set ready to use.
//
// Memory per source is proportional to the span between the lowest and
// highest sequence number added; a set fed sparse, far-apart numbers
// from one source pays for the whole span. Sources find their bitmap
// through a RowIndex, so any NodeID is accepted.
type SeqSet struct {
	rows []seqRow
	idx  RowIndex // source -> position in rows
	n    int
}

// seqRow is one source's bitmap: bit b of words[w] stands for sequence
// number base + 64·w + b. A row with no words has not been based yet.
type seqRow struct {
	base  uint32 // a multiple of 64
	words []uint64
}

// Add inserts id and reports whether it was absent.
func (s *SeqSet) Add(id EventID) bool {
	r := s.row(id.Source)
	w := r.cover(id.Seq)
	bit := uint64(1) << (id.Seq % 64)
	if r.words[w]&bit != 0 {
		return false
	}
	r.words[w] |= bit
	s.n++
	return true
}

// Has reports whether id is in the set.
func (s *SeqSet) Has(id EventID) bool {
	i, ok := s.idx.Row(int32(id.Source))
	if !ok {
		return false
	}
	r := &s.rows[i]
	if id.Seq < r.base {
		return false
	}
	w := (id.Seq - r.base) / 64
	return w < uint32(len(r.words)) && r.words[w]&(uint64(1)<<(id.Seq%64)) != 0
}

// Len returns the number of elements.
func (s *SeqSet) Len() int { return s.n }

// row returns src's bitmap, adding an empty one on first use.
func (s *SeqSet) row(src NodeID) *seqRow {
	i, added := s.idx.Add(int32(src))
	if added {
		s.rows = append(s.rows, seqRow{})
	}
	return &s.rows[i]
}

// cover grows the row until it spans seq and returns seq's word index.
// New words are zero.
func (r *seqRow) cover(seq uint32) int {
	switch {
	case len(r.words) == 0:
		r.base = seq &^ 63
		r.words = append(r.words, 0)
	case seq < r.base:
		// Extend downward: shift the existing words up.
		base := seq &^ 63
		k := int((r.base - base) / 64)
		n := len(r.words)
		r.words = append(r.words, make([]uint64, k)...)
		copy(r.words[k:], r.words[:n])
		clear(r.words[:k])
		r.base = base
	}
	w := int((seq - r.base) / 64)
	if w >= len(r.words) {
		r.words = append(r.words, make([]uint64, w+1-len(r.words))...)
	}
	return w
}
