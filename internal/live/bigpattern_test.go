package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/matching"
	"repro/internal/wire"
)

// TestLiveSpillPatternDelivery is the live-routing half of the Π>128
// regression: subscriptions to patterns beyond the inline bitset tier
// (here 200 and 513) must be first-class on the event fast-match path.
// Before the tiered PatternSet, localMatchLocked had a map fallback for
// these identifiers that the hot path could skip; now the bitset itself
// answers for them.
func TestLiveSpillPatternDelivery(t *testing.T) {
	var delivered sync.Map // nodeID → count
	c := newCluster(t, 6, 4, 77, func(i int) Config {
		id := ident.NodeID(i)
		return Config{
			OnDeliver: func(ev *wire.Event, recovered bool) {
				v, _ := delivered.LoadOrStore(id, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
			},
		}
	})

	c.Nodes[3].Subscribe(200)
	c.Nodes[4].Subscribe(513)
	waitRoutes(t, c, 200, 3)
	waitRoutes(t, c, 513, 4)

	c.Nodes[0].Publish(matching.Content{200})
	c.Nodes[0].Publish(matching.Content{513})
	c.Nodes[0].Publish(matching.Content{200, 513})
	c.Nodes[0].Publish(matching.Content{3}) // matches nobody

	count := func(id ident.NodeID) int64 {
		v, ok := delivered.Load(id)
		if !ok {
			return 0
		}
		return v.(*atomic.Int64).Load()
	}
	waitFor(t, 2*time.Second, func() bool {
		return count(3) == 2 && count(4) == 2
	}, "delivery of spill-tier patterns to both subscribers")

	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 6; i++ {
		id := ident.NodeID(i)
		if id == 3 || id == 4 {
			continue
		}
		if got := count(id); got != 0 {
			t.Fatalf("non-subscriber %v got %d deliveries", id, got)
		}
	}
}
