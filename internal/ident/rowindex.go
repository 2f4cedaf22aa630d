package ident

import (
	"cmp"
	"slices"
)

// RowIndex numbers identifiers — NodeIDs, PatternIDs — with compact row
// numbers 0, 1, 2, … in order of first use, so per-identifier state can
// live in a slice of rows instead of a map. Identifiers are dense by
// construction (N dispatchers use 0..N-1, a universe of Π patterns
// 0..Π-1), so the index is a slice addressed by the identifier itself.
// An identifier outside that range — negative, or far above every
// identifier indexed so far, as a corrupt datagram may carry — takes a
// slow path through a short sorted list instead, so memory stays
// proportional to the number of rows, never to an identifier's value.
// The zero value is an empty index.
type RowIndex struct {
	dense []int32  // dense[id] = row+1; 0 marks an identifier without a row
	far   []farRow // identifiers dense does not cover, sorted by id
	rows  int32
}

type farRow struct{ id, row int32 }

// denseFloor is the identifier span the dense slice may always cover.
// Past it the span grows with the row count, which bounds the slice at
// a few words per row.
const denseFloor = 1024

func denseSpan(rows int32) int { return max(denseFloor, 8*int(rows)) }

// Row returns id's row number, if it has one.
func (x *RowIndex) Row(id int32) (int, bool) {
	if uint32(id) < uint32(len(x.dense)) {
		r := x.dense[id]
		return int(r) - 1, r != 0
	}
	return x.farRow(id)
}

func (x *RowIndex) farRow(id int32) (int, bool) {
	i, ok := x.search(id)
	if !ok {
		return -1, false
	}
	return int(x.far[i].row), true
}

func (x *RowIndex) search(id int32) (int, bool) {
	return slices.BinarySearchFunc(x.far, id, func(f farRow, id int32) int { return cmp.Compare(f.id, id) })
}

// Add returns id's row number, assigning the next free one when id has
// none yet; added reports an assignment.
func (x *RowIndex) Add(id int32) (row int, added bool) {
	if r, ok := x.Row(id); ok {
		return r, false
	}
	row = int(x.rows)
	x.rows++
	if uint32(id) >= uint32(len(x.dense)) && id >= 0 && int(id) < denseSpan(x.rows) {
		x.grow(int(id) + 1)
	}
	if uint32(id) < uint32(len(x.dense)) {
		x.dense[id] = int32(row + 1)
		return row, true
	}
	i, _ := x.search(id)
	x.far = slices.Insert(x.far, i, farRow{id: id, row: int32(row)})
	return row, true
}

// grow extends dense to cover at least n identifiers, doubling within
// the allowed span, and moves the far identifiers it now covers into it.
func (x *RowIndex) grow(n int) {
	n = min(max(n, 2*len(x.dense), 64), max(n, denseSpan(x.rows)))
	dense := make([]int32, n)
	copy(dense, x.dense)
	keep := x.far[:0]
	for _, f := range x.far {
		if f.id >= 0 && int(f.id) < n {
			dense[f.id] = f.row + 1
		} else {
			keep = append(keep, f)
		}
	}
	x.dense, x.far = dense, keep
}
