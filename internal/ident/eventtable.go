package ident

import "math/bits"

// EventTable maps event identifiers to values of type V without a Go
// map: open addressing with linear probing over a power-of-two array,
// the (source, seq) pair packed into one uint64 key that is stored in
// the table itself, so a probe compares keys without leaving the array.
// Slots are found by Fibonacci hashing and deletion shifts the rest of
// a probe run back, so no tombstones accumulate. The array doubles
// whenever an insertion would push the load past ¾; a table that never
// holds more than k entries therefore never grows past the first power
// of two ≥ 4k/3. The zero value is an empty table that allocates on its
// first insertion.
type EventTable[V any] struct {
	slots []tableSlot[V]
	n     int
	shift uint8 // 64 - log2(len(slots))
}

type tableSlot[V any] struct {
	key  uint64
	val  V
	used bool
}

func packID(id EventID) uint64 { return uint64(uint32(id.Source))<<32 | uint64(id.Seq) }

func unpackID(key uint64) EventID { return EventID{Source: NodeID(int32(key >> 32)), Seq: uint32(key)} }

// home is key's preferred slot: the top bits of key × 2⁶⁴/φ.
func (t *EventTable[V]) home(key uint64) int { return int((key * 0x9E3779B97F4A7C15) >> t.shift) }

// Len returns the number of entries.
func (t *EventTable[V]) Len() int { return t.n }

// Get returns id's value.
func (t *EventTable[V]) Get(id EventID) (V, bool) {
	if t.n > 0 {
		key, mask := packID(id), len(t.slots)-1
		for i := t.home(key); t.slots[i].used; i = (i + 1) & mask {
			if t.slots[i].key == key {
				return t.slots[i].val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put sets id's value.
func (t *EventTable[V]) Put(id EventID, v V) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(max(8, 2*len(t.slots)))
	}
	key, mask := packID(id), len(t.slots)-1
	i := t.home(key)
	for ; t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].key == key {
			t.slots[i].val = v
			return
		}
	}
	t.slots[i] = tableSlot[V]{key: key, val: v, used: true}
	t.n++
}

// Delete removes id and reports whether it was present.
func (t *EventTable[V]) Delete(id EventID) bool {
	if t.n == 0 {
		return false
	}
	key, mask := packID(id), len(t.slots)-1
	for i := t.home(key); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].key == key {
			t.removeAt(i)
			return true
		}
	}
	return false
}

// DeleteFunc removes every entry for which del returns true. del must
// not modify the table.
func (t *EventTable[V]) DeleteFunc(del func(EventID, V) bool) {
	for i := 0; i < len(t.slots); {
		s := &t.slots[i]
		if s.used && del(unpackID(s.key), s.val) {
			// The shift may have moved a later entry into i: look again.
			// Entries only ever move backward into the hole, and one that
			// wraps around from the front was visited already, so every
			// entry is offered to del.
			t.removeAt(i)
			continue
		}
		i++
	}
}

// removeAt empties slot i and shifts back every entry of the probe run
// after it that may legally occupy the hole — one whose home does not
// lie cyclically between the hole and its current slot.
func (t *EventTable[V]) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
}

func (t *EventTable[V]) resize(size int) {
	old := t.slots
	t.slots = make([]tableSlot[V], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.used {
			i := t.home(s.key)
			for t.slots[i].used {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}
