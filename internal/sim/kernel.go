// Package sim implements the discrete-event simulation kernel that
// replaces OMNeT++ in the paper's evaluation: a virtual clock, a
// 4-ary-heap future-event set with deterministic tie-breaking, and
// seeded random-number streams.
//
// The kernel is single-threaded and fully deterministic: two runs with
// the same seed and the same schedule of callbacks produce identical
// traces. Events are ordered by (time, insertion sequence) and nothing
// else; every component schedules on the one *Kernel of its run.
// Parallelism belongs one level up, where independent simulations of a
// parameter sweep each run on their own kernel in their own goroutine
// (scenario.RunAll, scenario.RunSeeds).
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured from the start of the
// simulation. It reuses time.Duration so that literals such as
// 30*time.Millisecond read naturally in scenario code.
type Time = time.Duration

// Handler is a callback executed at its scheduled virtual time.
type Handler func()

// entry is the slab-resident state of one scheduled event. Entries
// live in Kernel.slab, addressed by slot index; popped or drained
// slots are recycled through the free list instead of becoming
// garbage. gen disambiguates recycled slots so that a stale Canceler
// held across the recycle boundary cannot cancel the wrong event
// (ABA). The ordering keys (at, seq) live in the heap nodes, not
// here, so sift comparisons never chase into the slab.
type entry struct {
	fn    Handler
	gen   uint64 // bumped on recycle; must match Canceler.gen
	sched bool   // still in the heap (not yet popped)
	dead  bool   // cancelled
}

// heapNode is one element of the future-event set, ordered by
// (at, seq). The keys are stored inline so the 4-ary sift loops
// compare adjacent memory instead of dereferencing slab entries.
type heapNode struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	slot int32  // index into Kernel.slab
}

// before reports the strict (at, seq) order. seq is unique per
// scheduled event, so this is a total order and any heap pops events
// in exactly insertion order among equal timestamps — the same
// tie-breaking the binary container/heap implementation had.
func (n heapNode) before(m heapNode) bool {
	if n.at != m.at {
		return n.at < m.at
	}
	return n.seq < m.seq
}

// Canceler cancels a scheduled event. Cancelling an event that already
// fired (or was already cancelled) is a no-op, even when the kernel has
// since recycled the underlying slot for a different event. The zero
// Canceler is valid and cancels nothing.
type Canceler struct {
	k    *Kernel
	slot int32
	gen  uint64
}

// Cancel prevents the associated handler from running.
func (c Canceler) Cancel() {
	if c.k == nil {
		return
	}
	e := &c.k.slab[c.slot]
	if e.gen != c.gen || e.dead {
		return
	}
	e.dead = true
	e.fn = nil // release the closure now; the slot drains lazily
	if e.sched {
		c.k.dead++
		c.k.maybeSweep()
	}
}

// Kernel is a discrete-event simulator instance.
//
// A Kernel must not be shared between goroutines.
type Kernel struct {
	now       Time
	seq       uint64
	heap      []heapNode // 4-ary min-heap over (at, seq)
	slab      []entry    // value storage, addressed by heapNode.slot
	free      []int32    // recycled slot indexes for At/After
	dead      int        // cancelled entries still in heap
	rng       *rand.Rand
	seed      int64
	processed uint64
	stopped   bool
}

// New returns a kernel whose random streams derive from seed.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// Rand returns the kernel's root random stream. Components that need
// independent streams should derive them with NewStream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// NewStream derives an independent, deterministic random stream from
// the kernel seed and the given tag. Streams created with the same
// (seed, tag) pair are identical across runs.
func (k *Kernel) NewStream(tag int64) *rand.Rand {
	// SplitMix-style scramble keeps streams decorrelated even for
	// adjacent tags.
	z := uint64(k.seed) + uint64(tag)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently scheduled (including
// cancelled entries not yet drained).
func (k *Kernel) Pending() int { return len(k.heap) }

// NextAt returns the time of the earliest scheduled event; ok is false
// when nothing is scheduled. The event may have been cancelled, in which
// case running the kernel up to that time just discards it. A driver
// that advances the kernel from a real clock sleeps until NextAt.
func (k *Kernel) NextAt() (at Time, ok bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// At schedules fn to run at virtual time at. Scheduling in the past
// panics: it is always a bug in the caller.
func (k *Kernel) At(at Time, fn Handler) Canceler {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slab = append(k.slab, entry{})
		slot = int32(len(k.slab) - 1)
	}
	e := &k.slab[slot]
	e.fn, e.sched, e.dead = fn, true, false
	nd := heapNode{at: at, seq: k.seq, slot: slot}
	k.seq++
	k.heap = append(k.heap, nd)
	k.siftUp(len(k.heap)-1, nd)
	return Canceler{k: k, slot: slot, gen: e.gen}
}

// siftUp moves nd (conceptually at index i) toward the root, walking a
// hole upward and writing each displaced parent once. The 4-ary layout
// puts the parent of i at (i-1)/4. Slot state is untouched: the slab
// only records whether an event is scheduled, not where, so sift moves
// are pure heap-array writes.
func (k *Kernel) siftUp(i int, nd heapNode) {
	for i > 0 {
		parent := (i - 1) / 4
		p := k.heap[parent]
		if !nd.before(p) {
			break
		}
		k.heap[i] = p
		i = parent
	}
	k.heap[i] = nd
}

// siftDown moves nd (conceptually at index i) toward the leaves. The
// children of i are 4i+1 .. 4i+4; the minimum child is found with at
// most three comparisons, and nd descends while it is larger.
func (k *Kernel) siftDown(i int, nd heapNode) {
	n := len(k.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if k.heap[j].before(k.heap[min]) {
				min = j
			}
		}
		m := k.heap[min]
		if !m.before(nd) {
			break
		}
		k.heap[i] = m
		i = min
	}
	k.heap[i] = nd
}

// popMin removes and returns the root node. The caller owns the
// returned node's slot; it is marked unscheduled.
func (k *Kernel) popMin() heapNode {
	top := k.heap[0]
	k.slab[top.slot].sched = false
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
	return top
}

// recycle returns a popped slot to the free list, invalidating any
// outstanding Cancelers for it.
func (k *Kernel) recycle(slot int32) {
	e := &k.slab[slot]
	e.gen++
	e.fn = nil
	k.free = append(k.free, slot)
}

// maybeSweep drains cancelled entries in bulk once they dominate the
// future-event set, so mass cancellations (e.g. tearing down many
// timers) do not pin memory until virtual time reaches them. The O(n)
// rebuild is amortized: it runs at most once per n/2 cancellations.
// Floyd's bottom-up heapify restores the heap property; pop order is
// unaffected because (at, seq) is a total order.
func (k *Kernel) maybeSweep() {
	if k.dead < 64 || k.dead*2 <= len(k.heap) {
		return
	}
	live := k.heap[:0]
	for _, nd := range k.heap {
		if k.slab[nd.slot].dead {
			k.slab[nd.slot].sched = false
			k.recycle(nd.slot)
			continue
		}
		live = append(live, nd)
	}
	k.heap = live
	if n := len(live); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			k.siftDown(i, k.heap[i])
		}
	}
	k.dead = 0
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn Handler) Canceler {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Stop makes Run return after the currently executing handler.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the future-event set is
// empty, the next event is past the horizon, or Stop is called. It
// returns the number of events executed by this call. The clock is left
// at the horizon when the run drained up to it, so that a subsequent
// Run with a later horizon continues seamlessly.
func (k *Kernel) Run(until Time) uint64 {
	var n uint64
	k.stopped = false
	for len(k.heap) > 0 && !k.stopped {
		if k.heap[0].at > until {
			break
		}
		next := k.popMin()
		e := &k.slab[next.slot]
		if e.dead {
			k.dead--
			k.recycle(next.slot)
			continue
		}
		k.now = next.at
		fn := e.fn
		k.recycle(next.slot)
		fn()
		n++
		k.processed++
	}
	if k.now < until && !k.stopped {
		k.now = until
	}
	return n
}

// RunAll executes every scheduled event regardless of time, leaving
// the clock at the last executed event (so more work can be scheduled
// afterwards). Intended for tests; simulations should bound Run with a
// horizon.
func (k *Kernel) RunAll() uint64 {
	var n uint64
	k.stopped = false
	for len(k.heap) > 0 && !k.stopped {
		next := k.popMin()
		e := &k.slab[next.slot]
		if e.dead {
			k.dead--
			k.recycle(next.slot)
			continue
		}
		k.now = next.at
		fn := e.fn
		k.recycle(next.slot)
		fn()
		n++
		k.processed++
	}
	return n
}
