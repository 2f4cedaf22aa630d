package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/wire"
)

func ev(src, seq int) *wire.Event {
	return &wire.Event{ID: ident.EventID{Source: ident.NodeID(src), Seq: uint32(seq)}}
}

func id(src, seq int) ident.EventID {
	return ident.EventID{Source: ident.NodeID(src), Seq: uint32(seq)}
}

func TestFIFOEvictsOldest(t *testing.T) {
	c := New(3, FIFOPolicy, nil)
	for i := 1; i <= 3; i++ {
		c.Put(ev(0, i))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	c.Put(ev(0, 4))
	if c.Has(id(0, 1)) {
		t.Fatal("oldest event still buffered after overflow")
	}
	for i := 2; i <= 4; i++ {
		if !c.Has(id(0, i)) {
			t.Fatalf("event %d missing", i)
		}
	}
	if c.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", c.Evicted())
	}
}

func TestFIFOGetDoesNotRefresh(t *testing.T) {
	c := New(2, FIFOPolicy, nil)
	c.Put(ev(0, 1))
	c.Put(ev(0, 2))
	if got := c.Get(id(0, 1)); got == nil {
		t.Fatal("Get(1) = nil")
	}
	c.Put(ev(0, 3))
	if c.Has(id(0, 1)) {
		t.Fatal("FIFO eviction was affected by Get")
	}
}

func TestLRUGetRefreshes(t *testing.T) {
	c := New(2, LRUPolicy, nil)
	c.Put(ev(0, 1))
	c.Put(ev(0, 2))
	if c.Get(id(0, 1)) == nil {
		t.Fatal("Get(1) = nil")
	}
	c.Put(ev(0, 3)) // should evict 2, not 1
	if !c.Has(id(0, 1)) {
		t.Fatal("recently read event evicted under LRU")
	}
	if c.Has(id(0, 2)) {
		t.Fatal("least recently used event survived")
	}
}

func TestLRUPutRefreshes(t *testing.T) {
	c := New(2, LRUPolicy, nil)
	c.Put(ev(0, 1))
	c.Put(ev(0, 2))
	c.Put(ev(0, 1)) // refresh, no new insertion
	if c.Inserted() != 2 {
		t.Fatalf("Inserted = %d, want 2", c.Inserted())
	}
	c.Put(ev(0, 3))
	if !c.Has(id(0, 1)) || c.Has(id(0, 2)) {
		t.Fatal("LRU refresh on Put not honored")
	}
}

func TestRandomPolicyStaysAtCapacity(t *testing.T) {
	c := New(10, RandomPolicy, rand.New(rand.NewSource(5)))
	for i := 0; i < 1000; i++ {
		c.Put(ev(0, i))
		if c.Len() > 10 {
			t.Fatalf("Len = %d exceeds capacity", c.Len())
		}
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	if c.Evicted() != 990 {
		t.Fatalf("Evicted = %d, want 990", c.Evicted())
	}
}

func TestRandomPolicyDeterministicUnderSeed(t *testing.T) {
	run := func() []ident.EventID {
		c := New(5, RandomPolicy, rand.New(rand.NewSource(9)))
		for i := 0; i < 100; i++ {
			c.Put(ev(0, i))
		}
		var out []ident.EventID
		for i := 0; i < 100; i++ {
			if c.Has(id(0, i)) {
				out = append(out, id(0, i))
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDuplicatePutIsNoOp(t *testing.T) {
	c := New(2, FIFOPolicy, nil)
	c.Put(ev(0, 1))
	c.Put(ev(0, 1))
	if c.Len() != 1 || c.Inserted() != 1 {
		t.Fatalf("Len=%d Inserted=%d after duplicate Put, want 1, 1", c.Len(), c.Inserted())
	}
}

func TestGetMissing(t *testing.T) {
	c := New(2, FIFOPolicy, nil)
	if c.Get(id(1, 1)) != nil {
		t.Fatal("Get on empty cache returned an event")
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, FIFOPolicy, nil) },
		func() { New(5, RandomPolicy, nil) },
		func() { New(5, Policy(99), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid New did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPolicyString(t *testing.T) {
	if FIFOPolicy.String() != "fifo" || RandomPolicy.String() != "random" || LRUPolicy.String() != "lru" {
		t.Fatal("Policy.String names wrong")
	}
	if Policy(42).String() != "policy(42)" {
		t.Fatalf("unknown policy String = %q", Policy(42).String())
	}
}

// TestCacheInvariantsProperty drives random Put/Get sequences through
// all three policies and checks the structural invariants: size never
// exceeds capacity, inserted = len + evicted, and Has agrees with Get.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		for _, policy := range []Policy{FIFOPolicy, RandomPolicy, LRUPolicy} {
			rng := rand.New(rand.NewSource(seed))
			c := New(8, policy, rng)
			for _, op := range ops {
				key := int(op % 64)
				if op%3 == 0 {
					got := c.Get(id(0, key))
					if (got != nil) != c.Has(id(0, key)) {
						return false
					}
				} else {
					c.Put(ev(0, key))
				}
				if c.Len() > c.Capacity() {
					return false
				}
				if c.Inserted() != uint64(c.Len())+c.Evicted() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLongRunMemoryCompaction exercises the order-queue compaction path
// (head > 4096).
func TestLongRunMemoryCompaction(t *testing.T) {
	c := New(16, LRUPolicy, nil)
	for i := 0; i < 50000; i++ {
		c.Put(ev(0, i))
		c.Get(id(0, i-5))
	}
	if c.Len() != 16 {
		t.Fatalf("Len = %d, want 16", c.Len())
	}
	if len(c.order)-c.head > 16*4 {
		t.Fatalf("order queue not compacted: %d live entries", len(c.order)-c.head)
	}
}

func TestOnEvictCallback(t *testing.T) {
	c := New(2, FIFOPolicy, nil)
	var gone []ident.EventID
	c.SetOnEvict(func(e *wire.Event) { gone = append(gone, e.ID) })
	c.Put(ev(0, 1))
	c.Put(ev(0, 2))
	c.Put(ev(0, 3))
	c.Put(ev(0, 4))
	if len(gone) != 2 || gone[0] != id(0, 1) || gone[1] != id(0, 2) {
		t.Fatalf("evictions = %v, want [0:1 0:2]", gone)
	}
}

// TestPutAtCapacityAllocsZero pins the steady state of every buffer in
// a long run: a Put into a full cache evicts one event and reuses its
// slot, under every policy, without allocating.
func TestPutAtCapacityAllocsZero(t *testing.T) {
	const beta, warm, runs = 1500, 3 * 1500, 1000
	evs := make([]*wire.Event, beta+warm+runs+1)
	for i := range evs {
		evs[i] = ev(i%100, i)
	}
	for _, policy := range []Policy{FIFOPolicy, RandomPolicy, LRUPolicy} {
		c := New(beta, policy, rand.New(rand.NewSource(1)))
		for _, e := range evs[:beta+warm] {
			c.Put(e)
		}
		next := beta + warm
		before := c.Evicted()
		allocs := testing.AllocsPerRun(runs, func() {
			c.Put(evs[next])
			next++
		})
		if allocs != 0 {
			t.Errorf("%v: Put at capacity: %v allocs/op, want 0", policy, allocs)
		}
		if got := c.Evicted() - before; got != runs+1 {
			t.Errorf("%v: %d evictions over %d Puts, want one each", policy, got, runs+1)
		}
	}
}

func BenchmarkCachePutFIFO(b *testing.B) {
	c := New(1500, FIFOPolicy, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(ev(i%100, i))
	}
}

func BenchmarkCachePutLRU(b *testing.B) {
	c := New(1500, LRUPolicy, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(ev(i%100, i))
	}
}

func BenchmarkCacheGet(b *testing.B) {
	c := New(1500, FIFOPolicy, nil)
	for i := 0; i < 1500; i++ {
		c.Put(ev(0, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Get(id(0, i%1500))
	}
}

// TestLRUOrderBoundedWithoutEviction is the regression test for the
// cache-growth bug: under LRUPolicy every Get appends a fresh entry to
// the order queue, but compaction used to run only inside evictOne — a
// cache that never fills (large β, light load) grew the queue without
// bound for the whole run.
func TestLRUOrderBoundedWithoutEviction(t *testing.T) {
	const n = 8
	c := New(1024, LRUPolicy, nil) // never fills: no eviction ever runs
	for i := 0; i < n; i++ {
		c.Put(ev(1, i))
	}
	for round := 0; round < 100_000; round++ {
		if c.Get(id(1, round%n)) == nil {
			t.Fatalf("event %d missing", round%n)
		}
		if got, bound := len(c.order), 2*n+64+1; got > bound {
			t.Fatalf("order queue grew to %d entries after %d touches (bound %d)", got, round+1, bound)
		}
	}
	if c.Evicted() != 0 {
		t.Fatalf("evictions = %d, want 0", c.Evicted())
	}
	// Eviction order must still be pure LRU after all that compaction.
	// Fill to capacity exactly, refresh one original, then overflow by
	// one: the eviction must take the least-recently-used original.
	for i := 0; i < 1024-n; i++ {
		c.Put(ev(2, i))
	}
	c.Get(id(1, 3)) // refresh one original event
	c.Put(ev(3, 0)) // overflow: evicts the oldest original, (1, 0)
	if c.Has(id(1, 0)) {
		t.Fatal("LRU kept the least-recently-used event past capacity")
	}
	if !c.Has(id(1, 3)) || !c.Has(id(1, 1)) {
		t.Fatal("LRU evicted the wrong victim after compaction")
	}
}

// TestLRURePutBoundedWithoutEviction covers the Put-side of the same
// bug: re-Put of buffered events also appends to the order queue.
func TestLRURePutBoundedWithoutEviction(t *testing.T) {
	const n = 8
	c := New(1024, LRUPolicy, nil)
	for round := 0; round < 100_000; round++ {
		c.Put(ev(1, round%n))
		if got, bound := len(c.order), 2*n+64+1; got > bound {
			t.Fatalf("order queue grew to %d entries after %d re-puts (bound %d)", got, round+1, bound)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
}
