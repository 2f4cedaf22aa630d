package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/topology"
)

// evictionParams is the eviction-scale pin configuration: the paper's
// N=100 regime cut to 3 s, with a β=150 event buffer and a 64-entry Lost
// buffer. Every dispatcher fills β within the first second, so cache
// eviction (and with it the removal of evicted events from the push and
// pull indices) and Lost-buffer capacity eviction run throughout — which
// the N=25 golden run never reaches.
func evictionParams(alg core.Algorithm, policy cache.Policy) Params {
	p := DefaultParams()
	p.Seed = 5
	p.Duration = 3 * time.Second
	p.MeasureFrom = 300 * time.Millisecond
	p.MeasureTo = 2500 * time.Millisecond
	p.Algorithm = alg
	p.Gossip = core.DefaultConfig(alg)
	p.Gossip.BufferSize = 150
	p.Gossip.BufferPolicy = policy
	p.Gossip.LostCapacity = 64
	return p
}

// evictionPin is the pinned outcome of one eviction-scale run.
type evictionPin struct {
	rate          float64
	kernel        uint64
	recovered     uint64
	dupRecoveries uint64
	requests      uint64
}

func (p evictionPin) String() string {
	return fmt.Sprintf("rate=%.17g kernel=%d recovered=%d dup=%d requests=%d",
		p.rate, p.kernel, p.recovered, p.dupRecoveries, p.requests)
}

func pinOf(r Result) evictionPin {
	return evictionPin{
		rate:          r.DeliveryRate,
		kernel:        r.KernelEvents,
		recovered:     r.EngineStats.Recovered,
		dupRecoveries: r.EngineStats.DuplicateRecoveries,
		requests:      r.EngineStats.RequestsSent,
	}
}

// TestEvictionScaleFixedSeed pins exact outcomes of full buffers: the
// five recovery algorithms and Hybrid under each replacement policy,
// one small-world leg (dedup forwarding over a cyclic overlay) and one
// Shards=2 leg, which pins that the field is accepted and changes
// nothing. Any change to eviction order, index maintenance under
// eviction, or serving from a churning buffer shows up here as a
// bit-level diff. Values recorded from the implementation whose push,
// pull and received-set indices were Go maps.
func TestEvictionScaleFixedSeed(t *testing.T) {
	algs := []core.Algorithm{core.RandomPull, core.Push, core.SubscriberPull, core.PublisherPull, core.CombinedPull, core.Hybrid}
	policies := []cache.Policy{cache.FIFOPolicy, cache.RandomPolicy, cache.LRUPolicy}
	grid := map[string]evictionPin{
		"random-pull/fifo":       {0.58398459243426182, 266969, 3490, 0, 0},
		"random-pull/random":     {0.58255961525616196, 267393, 3307, 0, 0},
		"random-pull/lru":        {0.58440763253401018, 266482, 3494, 0, 0},
		"push/fifo":              {0.64314341059381475, 300623, 9947, 0, 5742},
		"push/random":            {0.63775521563912452, 302650, 9853, 0, 5729},
		"push/lru":               {0.64515841738472157, 300879, 9837, 0, 5666},
		"subscriber-pull/fifo":   {0.62911629149689396, 294938, 8361, 2558, 0},
		"subscriber-pull/random": {0.63137621624028673, 293563, 9290, 2133, 0},
		"subscriber-pull/lru":    {0.6271235499743949, 294454, 8263, 2772, 0},
		"publisher-pull/fifo":    {0.57905283548193176, 287471, 3420, 0, 0},
		"publisher-pull/random":  {0.57229532652016124, 286464, 3433, 0, 0},
		"publisher-pull/lru":     {0.58032195578117696, 286656, 4021, 0, 0},
		"combined-pull/fifo":     {0.62981764745174007, 296369, 8632, 2168, 0},
		"combined-pull/random":   {0.63025182018569237, 296572, 9353, 1565, 0},
		"combined-pull/lru":      {0.63884621379110729, 298067, 9077, 2318, 0},
		"hybrid/fifo":            {0.63088638033531497, 359140, 9927, 607, 1902},
		"hybrid/random":          {0.62008772515752675, 359585, 9654, 436, 2015},
		"hybrid/lru":             {0.62837040500523234, 369174, 10835, 607, 1993},
	}
	check := func(t *testing.T, p Params, want evictionPin) {
		t.Helper()
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := pinOf(r); got != want {
			t.Errorf("drifted from pinned values:\n got %v\nwant %v", got, want)
		}
	}
	for _, alg := range algs {
		for _, policy := range policies {
			alg, policy := alg, policy
			name := alg.String() + "/" + policy.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				check(t, evictionParams(alg, policy), grid[name])
			})
		}
	}
	t.Run("small-world-dedup/hybrid/fifo", func(t *testing.T) {
		t.Parallel()
		p := evictionParams(core.Hybrid, cache.FIFOPolicy)
		p.Overlay = topology.KindSmallWorld
		check(t, p, evictionPin{0.69191548104112399, 853768, 22355, 3805, 549})
	})
	t.Run("shards-2/combined-pull/fifo", func(t *testing.T) {
		t.Parallel()
		p := evictionParams(core.CombinedPull, cache.FIFOPolicy)
		p.Shards = 2
		check(t, p, grid["combined-pull/fifo"])
	})
}

// TestRunAllMatchesRun: a sweep's results must not depend on which
// worker ran a job or what it ran before. RunAll over a mixed list —
// overlays, algorithms, replacement policies, and one leg under node
// churn with self-stabilizing repair — must equal a Run of each element
// bit for bit.
func TestRunAllMatchesRun(t *testing.T) {
	t.Parallel()
	smallWorld := evictionParams(core.Hybrid, cache.FIFOPolicy)
	smallWorld.Overlay = topology.KindSmallWorld
	churn := overlayChurnParams(3, topology.KindScaleFree, RepairSelfStabilizing, core.CombinedPull)
	legs := []Params{
		smallWorld,
		evictionParams(core.Push, cache.LRUPolicy),
		churn,
		evictionParams(core.CombinedPull, cache.RandomPolicy),
		evictionParams(core.Hybrid, cache.FIFOPolicy),
	}
	swept, err := RunAll(legs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range legs {
		single, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[i], single) {
			t.Errorf("leg %d (%v): RunAll result differs from Run:\nRunAll: %v\n   Run: %v", i, p.Algorithm, pinOf(swept[i]), pinOf(single))
		}
	}
}
