// Package cache implements the per-dispatcher event buffer: a
// β-bounded store of events kept to satisfy retransmission requests
// (paper Sec. IV-A, "Buffer size"). The paper uses a simple FIFO
// strategy; RandomPolicy and LRUPolicy exist for the buffering ablation
// motivated by the paper's discussion of [13] (Ozkasap et al.,
// "Efficient Buffering in Reliable Multicast Protocols").
package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/ident"
	"repro/internal/wire"
)

// Policy selects which cached event to evict when the buffer is full.
type Policy int

// Replacement policies. FIFOPolicy is the paper's choice.
const (
	FIFOPolicy Policy = iota + 1
	RandomPolicy
	LRUPolicy
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFOPolicy:
		return "fifo"
	case RandomPolicy:
		return "random"
	case LRUPolicy:
		return "lru"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// slot is one buffered event plus its latest access tick. Slots are
// stored by value in the cache map, so inserting an event allocates
// nothing beyond the map's own growth.
type slot struct {
	ev   *wire.Event
	tick uint64
}

// orderEntry is one position in the eviction queue. An entry is live
// only when its tick still matches the slot's tick; refreshing an event
// (LRU) appends a fresh entry and leaves the old one stale.
type orderEntry struct {
	id   ident.EventID
	tick uint64
}

// Cache is a bounded event buffer. Use New; the zero value is unusable.
//
// Cache is not safe for concurrent use: each simulated dispatcher owns
// one cache and the kernel is single-threaded.
type Cache struct {
	capacity int
	policy   Policy
	rng      *rand.Rand
	slots    map[ident.EventID]slot
	tick     uint64
	evicted  uint64
	inserted uint64
	onEvict  func(*wire.Event)

	// FIFO/LRU eviction queue, lazily compacted.
	order []orderEntry
	head  int

	// RandomPolicy index: live keys with positions for O(1) swap-remove,
	// keeping eviction deterministic under a seeded rng (map iteration
	// order would not be).
	keys []ident.EventID
	pos  map[ident.EventID]int
}

// New returns a cache holding at most capacity events under the given
// policy. rng is required by RandomPolicy and may be nil otherwise.
// The maps start empty and grow with the content: a 10k-node run builds
// thousands of caches that stay far below β, and a Reset-recycled cache
// keeps the buckets it grew.
func New(capacity int, policy Policy, rng *rand.Rand) *Cache {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d < 1", capacity))
	}
	c := &Cache{
		capacity: capacity,
		policy:   policy,
		rng:      rng,
		slots:    make(map[ident.EventID]slot),
	}
	switch policy {
	case RandomPolicy:
		if rng == nil {
			panic("cache: RandomPolicy requires an rng")
		}
		c.keys = make([]ident.EventID, 0, capacity)
		c.pos = make(map[ident.EventID]int)
	case FIFOPolicy, LRUPolicy:
	default:
		panic(fmt.Sprintf("cache: unknown policy %d", int(policy)))
	}
	return c
}

// Reset empties the cache and re-targets it at a new capacity, policy,
// and rng, reusing the maps and slices the previous configuration grew.
// Counters restart from zero and any OnEvict callback is dropped. The
// validation rules match New. Sweep workers use this to recycle one
// cache across many engine lifetimes instead of reallocating β-sized
// tables per run.
func (c *Cache) Reset(capacity int, policy Policy, rng *rand.Rand) {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d < 1", capacity))
	}
	switch policy {
	case RandomPolicy:
		if rng == nil {
			panic("cache: RandomPolicy requires an rng")
		}
		if c.pos == nil {
			c.keys = make([]ident.EventID, 0, capacity)
			c.pos = make(map[ident.EventID]int)
		}
	case FIFOPolicy, LRUPolicy:
	default:
		panic(fmt.Sprintf("cache: unknown policy %d", int(policy)))
	}
	c.capacity, c.policy, c.rng = capacity, policy, rng
	clear(c.slots)
	c.order = c.order[:0]
	c.head = 0
	c.keys = c.keys[:0]
	if c.pos != nil {
		clear(c.pos)
	}
	c.tick, c.evicted, c.inserted = 0, 0, 0
	c.onEvict = nil
}

// SetOnEvict installs a callback invoked for every evicted event.
// The recovery engine uses it to keep its (source, pattern, seq) index
// in sync with the buffer.
func (c *Cache) SetOnEvict(fn func(*wire.Event)) { c.onEvict = fn }

// Capacity returns β.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of buffered events.
func (c *Cache) Len() int { return len(c.slots) }

// Evicted returns how many events have been evicted so far.
func (c *Cache) Evicted() uint64 { return c.evicted }

// Inserted returns how many distinct insertions happened so far.
func (c *Cache) Inserted() uint64 { return c.inserted }

// Has reports whether the event is buffered.
func (c *Cache) Has(id ident.EventID) bool {
	_, ok := c.slots[id]
	return ok
}

// Range calls fn for every buffered event, in no particular order,
// without refreshing any access time. fn must not modify the cache.
func (c *Cache) Range(fn func(*wire.Event)) {
	for _, s := range c.slots {
		fn(s.ev)
	}
}

// Get returns the buffered event, or nil. Under LRU it refreshes the
// event's access time: a retransmission request for an event signals
// that it is still wanted.
func (c *Cache) Get(id ident.EventID) *wire.Event {
	s, ok := c.slots[id]
	if !ok {
		return nil
	}
	if c.policy == LRUPolicy {
		c.touch(id)
	}
	return s.ev
}

// Put buffers ev, evicting one event when full. Re-inserting an already
// buffered event refreshes its position under LRU and is otherwise a
// no-op.
func (c *Cache) Put(ev *wire.Event) {
	if _, ok := c.slots[ev.ID]; ok {
		if c.policy == LRUPolicy {
			c.touch(ev.ID)
		}
		return
	}
	if len(c.slots) >= c.capacity {
		c.evictOne()
	}
	c.tick++
	c.slots[ev.ID] = slot{ev: ev, tick: c.tick}
	c.inserted++
	switch c.policy {
	case RandomPolicy:
		c.pos[ev.ID] = len(c.keys)
		c.keys = append(c.keys, ev.ID)
	default:
		c.order = append(c.order, orderEntry{id: ev.ID, tick: c.tick})
		c.maybeCompact()
	}
}

func (c *Cache) touch(id ident.EventID) {
	c.tick++
	s := c.slots[id]
	s.tick = c.tick
	c.slots[id] = s
	c.order = append(c.order, orderEntry{id: id, tick: c.tick})
	// A cache that never fills (large β, light load) never runs
	// evictOne, so the stale entries every touch leaves behind must be
	// reclaimed here too, or order grows without bound for the whole
	// run.
	c.maybeCompact()
}

func (c *Cache) evictOne() {
	var victim ident.EventID
	if c.policy == RandomPolicy {
		i := c.rng.Intn(len(c.keys))
		victim = c.keys[i]
		last := len(c.keys) - 1
		c.keys[i] = c.keys[last]
		c.pos[c.keys[i]] = i
		c.keys = c.keys[:last]
		delete(c.pos, victim)
	} else {
		// Pop queue entries until one is live: present in slots and,
		// under LRU, not superseded by a fresher access.
		for {
			e := c.order[c.head]
			c.head++
			if s, ok := c.slots[e.id]; ok && s.tick == e.tick {
				victim = e.id
				break
			}
		}
		c.maybeCompact()
	}
	s := c.slots[victim]
	delete(c.slots, victim)
	c.evicted++
	if c.onEvict != nil {
		c.onEvict(s.ev)
	}
}

// maybeCompact rewrites the order queue once stale entries — the
// consumed prefix plus interior entries superseded by fresher LRU
// touches — outnumber the live population. Every live slot has exactly
// one matching entry, so the queue is compacted to at most Len()
// entries whenever it exceeds twice that (plus a floor that keeps tiny
// caches from compacting constantly). This bounds memory even when the
// cache never fills and evictOne never runs (large β, light load).
func (c *Cache) maybeCompact() {
	if len(c.order) <= 2*len(c.slots)+64 {
		return
	}
	live := c.order[:0]
	for _, e := range c.order[c.head:] {
		if s, ok := c.slots[e.id]; ok && s.tick == e.tick {
			live = append(live, e)
		}
	}
	c.order = live
	c.head = 0
}
