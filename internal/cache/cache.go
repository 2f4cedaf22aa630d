// Package cache implements the per-dispatcher event buffer: a
// β-bounded store of events kept to satisfy retransmission requests
// (paper Sec. IV-A, "Buffer size"). The paper uses a simple FIFO
// strategy; RandomPolicy and LRUPolicy exist for the buffering ablation
// motivated by the paper's discussion of [13] (Ozkasap et al.,
// "Efficient Buffering in Reliable Multicast Protocols").
//
// Buffered events live in a slab of slots; an ident.EventTable maps
// each buffered event to its slot, so no operation hashes through a Go
// map. The slab and the table grow with the content, never past what β
// needs: a 10k-node run builds thousands of caches that stay far below
// β.
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

// slot is one buffered event plus its latest access tick. A free slot
// has a nil event and tick 0, which no order entry carries.
type slot struct {
	ev   *wire.Event
	tick uint64
}

// orderEntry is one position in the eviction queue. An entry is live
// only when its tick still matches its slot's tick; refreshing an event
// (LRU) appends a fresh entry and leaves the old one stale. Ticks are
// unique, so an entry never revives when its slot is reused.
type orderEntry struct {
	slot int32
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
	index    ident.EventTable[int32] // buffered event -> slot
	slots    []slot
	free     []int32 // slots freed by eviction, reused first
	tick     uint64
	evicted  uint64
	inserted uint64
	onEvict  func(*wire.Event)

	// FIFO/LRU eviction queue, lazily compacted.
	order []orderEntry
	head  int

	// RandomPolicy index: the occupied slots, swap-removed in O(1), so
	// a victim is one uniform draw from a deterministic order.
	keys []int32
}

// New returns a cache holding at most capacity events under the given
// policy. rng is required by RandomPolicy and may be nil otherwise.
func New(capacity int, policy Policy, rng *rand.Rand) *Cache {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d < 1", capacity))
	}
	switch policy {
	case RandomPolicy:
		if rng == nil {
			panic("cache: RandomPolicy requires an rng")
		}
	case FIFOPolicy, LRUPolicy:
	default:
		panic(fmt.Sprintf("cache: unknown policy %d", int(policy)))
	}
	return &Cache{capacity: capacity, policy: policy, rng: rng}
}

// SetOnEvict installs a callback invoked for every evicted event.
// The recovery engine uses it to keep its (source, pattern, seq) index
// in sync with the buffer.
func (c *Cache) SetOnEvict(fn func(*wire.Event)) { c.onEvict = fn }

// Capacity returns β.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of buffered events.
func (c *Cache) Len() int { return c.index.Len() }

// Evicted returns how many events have been evicted so far.
func (c *Cache) Evicted() uint64 { return c.evicted }

// Inserted returns how many distinct insertions happened so far.
func (c *Cache) Inserted() uint64 { return c.inserted }

// Has reports whether the event is buffered.
func (c *Cache) Has(id ident.EventID) bool {
	_, ok := c.index.Get(id)
	return ok
}

// Range calls fn for every buffered event, in no particular order,
// without refreshing any access time. fn must not modify the cache.
func (c *Cache) Range(fn func(*wire.Event)) {
	for _, s := range c.slots {
		if s.ev != nil {
			fn(s.ev)
		}
	}
}

// Get returns the buffered event, or nil. Under LRU it refreshes the
// event's access time: a retransmission request for an event signals
// that it is still wanted.
func (c *Cache) Get(id ident.EventID) *wire.Event {
	s, ok := c.index.Get(id)
	if !ok {
		return nil
	}
	if c.policy == LRUPolicy {
		c.touch(s)
	}
	return c.slots[s].ev
}

// Put buffers ev, evicting one event when full. Re-inserting an already
// buffered event refreshes its position under LRU and is otherwise a
// no-op.
func (c *Cache) Put(ev *wire.Event) {
	if s, ok := c.index.Get(ev.ID); ok {
		if c.policy == LRUPolicy {
			c.touch(s)
		}
		return
	}
	if c.index.Len() >= c.capacity {
		c.evictOne()
	}
	var s int32
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		s = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	c.tick++
	c.slots[s] = slot{ev: ev, tick: c.tick}
	c.index.Put(ev.ID, s)
	c.inserted++
	switch c.policy {
	case RandomPolicy:
		c.keys = append(c.keys, s)
	default:
		c.order = append(c.order, orderEntry{slot: s, tick: c.tick})
		c.maybeCompact()
	}
}

func (c *Cache) touch(s int32) {
	c.tick++
	c.slots[s].tick = c.tick
	c.order = append(c.order, orderEntry{slot: s, tick: c.tick})
	// A cache that never fills (large β, light load) never runs
	// evictOne, so the stale entries every touch leaves behind must be
	// reclaimed here too, or order grows without bound for the whole
	// run.
	c.maybeCompact()
}

func (c *Cache) live(e orderEntry) bool { return c.slots[e.slot].tick == e.tick }

func (c *Cache) evictOne() {
	var victim int32
	if c.policy == RandomPolicy {
		i := c.rng.Intn(len(c.keys))
		victim = c.keys[i]
		last := len(c.keys) - 1
		c.keys[i] = c.keys[last]
		c.keys = c.keys[:last]
	} else {
		// Pop queue entries until one is live: its slot still holds the
		// event it was queued for and, under LRU, no fresher access
		// superseded it.
		for {
			e := c.order[c.head]
			c.head++
			if c.live(e) {
				victim = e.slot
				break
			}
		}
		c.maybeCompact()
	}
	ev := c.slots[victim].ev
	c.index.Delete(ev.ID)
	c.slots[victim] = slot{}
	c.free = append(c.free, victim)
	c.evicted++
	if c.onEvict != nil {
		c.onEvict(ev)
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
	if len(c.order) <= 2*c.index.Len()+64 {
		return
	}
	live := c.order[:0]
	for _, e := range c.order[c.head:] {
		if c.live(e) {
			live = append(live, e)
		}
	}
	c.order = live
	c.head = 0
}
