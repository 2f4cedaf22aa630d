package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/wire"
)

// mapSlot is one buffered event plus its latest access tick. Slots are
// stored by value in the cache map, so inserting an event allocates
// nothing beyond the map's own growth.
type mapSlot struct {
	ev   *wire.Event
	tick uint64
}

// mapOrderEntry is one position in the eviction queue. An entry is live
// only when its tick still matches the slot's tick; refreshing an event
// (LRU) appends a fresh entry and leaves the old one stale.
type mapOrderEntry struct {
	id   ident.EventID
	tick uint64
}

// mapCache is the map-backed Cache the slot slab replaced, kept verbatim
// (names changed) as the oracle of TestCacheMatchesMapOracle.
//
// mapCache is not safe for concurrent use: each simulated dispatcher owns
// one cache and the kernel is single-threaded.
type mapCache struct {
	capacity int
	policy   Policy
	rng      *rand.Rand
	slots    map[ident.EventID]mapSlot
	tick     uint64
	evicted  uint64
	inserted uint64
	onEvict  func(*wire.Event)

	// FIFO/LRU eviction queue, lazily compacted.
	order []mapOrderEntry
	head  int

	// RandomPolicy index: live keys with positions for O(1) swap-remove,
	// keeping eviction deterministic under a seeded rng (map iteration
	// order would not be).
	keys []ident.EventID
	pos  map[ident.EventID]int
}

// newMapCache returns a cache holding at most capacity events under the given
// policy. rng is required by RandomPolicy and may be nil otherwise.
// The maps start empty and grow with the content: a 10k-node run builds
// thousands of caches that stay far below β.
func newMapCache(capacity int, policy Policy, rng *rand.Rand) *mapCache {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d < 1", capacity))
	}
	c := &mapCache{
		capacity: capacity,
		policy:   policy,
		rng:      rng,
		slots:    make(map[ident.EventID]mapSlot),
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

// SetOnEvict installs a callback invoked for every evicted event.
// The recovery engine uses it to keep its (source, pattern, seq) index
// in sync with the buffer.
func (c *mapCache) SetOnEvict(fn func(*wire.Event)) { c.onEvict = fn }

// Capacity returns β.
func (c *mapCache) Capacity() int { return c.capacity }

// Len returns the number of buffered events.
func (c *mapCache) Len() int { return len(c.slots) }

// Evicted returns how many events have been evicted so far.
func (c *mapCache) Evicted() uint64 { return c.evicted }

// Inserted returns how many distinct insertions happened so far.
func (c *mapCache) Inserted() uint64 { return c.inserted }

// Has reports whether the event is buffered.
func (c *mapCache) Has(id ident.EventID) bool {
	_, ok := c.slots[id]
	return ok
}

// Range calls fn for every buffered event, in no particular order,
// without refreshing any access time. fn must not modify the cache.
func (c *mapCache) Range(fn func(*wire.Event)) {
	for _, s := range c.slots {
		fn(s.ev)
	}
}

// Get returns the buffered event, or nil. Under LRU it refreshes the
// event's access time: a retransmission request for an event signals
// that it is still wanted.
func (c *mapCache) Get(id ident.EventID) *wire.Event {
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
func (c *mapCache) Put(ev *wire.Event) {
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
	c.slots[ev.ID] = mapSlot{ev: ev, tick: c.tick}
	c.inserted++
	switch c.policy {
	case RandomPolicy:
		c.pos[ev.ID] = len(c.keys)
		c.keys = append(c.keys, ev.ID)
	default:
		c.order = append(c.order, mapOrderEntry{id: ev.ID, tick: c.tick})
		c.maybeCompact()
	}
}

func (c *mapCache) touch(id ident.EventID) {
	c.tick++
	s := c.slots[id]
	s.tick = c.tick
	c.slots[id] = s
	c.order = append(c.order, mapOrderEntry{id: id, tick: c.tick})
	// A cache that never fills (large β, light load) never runs
	// evictOne, so the stale entries every touch leaves behind must be
	// reclaimed here too, or order grows without bound for the whole
	// run.
	c.maybeCompact()
}

func (c *mapCache) evictOne() {
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
func (c *mapCache) maybeCompact() {
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

// countingSource counts the draws made from a rand.Source64.
type countingSource struct {
	rand.Source64
	draws int
}

func (s *countingSource) Int63() int64   { s.draws++; return s.Source64.Int63() }
func (s *countingSource) Uint64() uint64 { s.draws++; return s.Source64.Uint64() }

func newCountingRand(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// TestCacheMatchesMapOracle drives the slab cache and the map-backed
// cache it replaced with the same random streams of Put, re-Put, Get
// and Has under all three policies, rebuilding both at a new policy
// and capacity now and then, and after every operation compares Len, the counters, the
// answers of Get and Has, the sequence of evicted events and the number
// of draws from each cache's rng — the same draws pick the same victims
// only if both caches keep identical eviction state.
func TestCacheMatchesMapOracle(t *testing.T) {
	policies := []Policy{FIFOPolicy, RandomPolicy, LRUPolicy}
	for _, start := range policies {
		for seed := int64(1); seed <= 3; seed++ {
			start, seed := start, seed
			t.Run(fmt.Sprintf("%v/seed%d", start, seed), func(t *testing.T) {
				ops := rand.New(rand.NewSource(seed))
				// Identifiers span negative, small and huge sources; the pool
				// is a few times the capacity, so hits, misses and evictions
				// all happen.
				var pool []*wire.Event
				for _, src := range []ident.NodeID{ident.None, 0, 1, 7, 1 << 30} {
					for seq := uint32(0); seq < 40; seq++ {
						pool = append(pool, &wire.Event{ID: ident.EventID{Source: src, Seq: seq*3 + 1}})
					}
				}
				capacity := 24
				rngC, srcC := newCountingRand(seed)
				rngO, srcO := newCountingRand(seed)
				c := New(capacity, start, rngC)
				o := newMapCache(capacity, start, rngO)
				var gotEv, wantEv []ident.EventID
				hook := func() {
					c.SetOnEvict(func(ev *wire.Event) {
						if c.Has(ev.ID) {
							t.Fatalf("evicted %v still buffered during the callback", ev.ID)
						}
						gotEv = append(gotEv, ev.ID)
					})
					o.SetOnEvict(func(ev *wire.Event) { wantEv = append(wantEv, ev.ID) })
				}
				hook()
				for op := 0; op < 6000; op++ {
					ev := pool[ops.Intn(len(pool))]
					switch k := ops.Intn(100); {
					case k < 55:
						c.Put(ev)
						o.Put(ev)
					case k < 75:
						if got, want := c.Get(ev.ID), o.Get(ev.ID); got != want {
							t.Fatalf("op %d: Get(%v) = %v, oracle %v", op, ev.ID, got, want)
						}
					case k < 99:
						if got, want := c.Has(ev.ID), o.Has(ev.ID); got != want {
							t.Fatalf("op %d: Has(%v) = %v, oracle %v", op, ev.ID, got, want)
						}
					default:
						policy := policies[ops.Intn(len(policies))]
						capacity = 1 + ops.Intn(48)
						rs := ops.Int63()
						rngC, srcC = newCountingRand(rs)
						rngO, srcO = newCountingRand(rs)
						c = New(capacity, policy, rngC)
						o = newMapCache(capacity, policy, rngO)
						hook()
					}
					if c.Len() != o.Len() || c.Evicted() != o.Evicted() || c.Inserted() != o.Inserted() {
						t.Fatalf("op %d: Len/Evicted/Inserted = %d/%d/%d, oracle %d/%d/%d",
							op, c.Len(), c.Evicted(), c.Inserted(), o.Len(), o.Evicted(), o.Inserted())
					}
					if !slices.Equal(gotEv, wantEv) {
						t.Fatalf("op %d: evicted %v, oracle %v", op, gotEv, wantEv)
					}
					if srcC.draws != srcO.draws {
						t.Fatalf("op %d: %d rng draws, oracle %d", op, srcC.draws, srcO.draws)
					}
					if op%250 == 0 {
						var got, want []ident.EventID
						c.Range(func(ev *wire.Event) { got = append(got, ev.ID) })
						o.Range(func(ev *wire.Event) { want = append(want, ev.ID) })
						slices.SortFunc(got, cmpID)
						slices.SortFunc(want, cmpID)
						if !slices.Equal(got, want) {
							t.Fatalf("op %d: buffered %v, oracle %v", op, got, want)
						}
					}
				}
			})
		}
	}
}

func cmpID(a, b ident.EventID) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	default:
		return 0
	}
}
