package sim_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestKernelStressOracle drives randomized schedule/cancel/run
// interleavings (fixed seeds) against a naive model: a list of
// scheduled events with (at, scheduling order) keys. After every run
// phase the kernel must have fired exactly the outstanding
// non-cancelled events up to the horizon, in (at, seq) order — the
// sorted-slice oracle — and Pending() must stay within
// [live, live+cancelled] regardless of when the lazy dead-sweep ran.
// Cancels deliberately hit already-fired and already-cancelled events,
// whose slots the kernel has recycled: the generation guard must turn
// those into no-ops rather than killing the slot's new occupant.
func TestKernelStressOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(seed)

		type oracleEvent struct {
			at        sim.Time
			cancelled bool
			fired     bool
		}
		var (
			events []oracleEvent // index is scheduling order (= kernel seq order)
			cans   []sim.Canceler
			fired  []int
		)
		schedule := func(at sim.Time) {
			id := len(events)
			events = append(events, oracleEvent{at: at})
			cans = append(cans, k.At(at, func() { fired = append(fired, id) }))
		}
		cancel := func(id int) {
			cans[id].Cancel()
			if !events[id].fired {
				events[id].cancelled = true
			}
		}
		checkPending := func(phase int) {
			live, dead := 0, 0
			for _, e := range events {
				switch {
				case e.fired:
				case e.cancelled:
					dead++
				default:
					live++
				}
			}
			if p := k.Pending(); p < live || p > live+dead {
				t.Fatalf("seed %d phase %d: Pending = %d, want within [%d, %d]", seed, phase, p, live, live+dead)
			}
		}
		runTo := func(phase int, horizon sim.Time, drain bool) {
			fired = fired[:0]
			if drain {
				k.RunAll()
			} else {
				k.Run(horizon)
			}
			var want []int
			for id, e := range events {
				if !e.fired && !e.cancelled && (drain || e.at <= horizon) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				a, b := events[want[i]], events[want[j]]
				if a.at != b.at {
					return a.at < b.at
				}
				return want[i] < want[j] // scheduling order breaks ties
			})
			if !slices.Equal(fired, want) {
				t.Fatalf("seed %d phase %d: fired %v, oracle %v", seed, phase, fired, want)
			}
			for _, id := range fired {
				events[id].fired = true
			}
		}

		for phase := 0; phase < 40; phase++ {
			for i, n := 0, rng.Intn(40); i < n; i++ {
				schedule(k.Now() + sim.Time(rng.Intn(1000))*time.Microsecond)
			}
			if len(events) > 0 {
				for i, n := 0, rng.Intn(30); i < n; i++ {
					cancel(rng.Intn(len(events))) // may hit fired/cancelled ids
				}
				if phase%7 == 3 {
					// Mass cancel: push the dead count over the sweep
					// threshold so the bulk drain and Floyd rebuild run.
					for id, e := range events {
						if !e.fired && !e.cancelled && rng.Intn(2) == 0 {
							cancel(id)
						}
					}
				}
			}
			checkPending(phase)
			runTo(phase, k.Now()+sim.Time(rng.Intn(1500))*time.Microsecond, false)
			checkPending(phase)
		}

		runTo(40, 0, true)
		if k.Pending() != 0 {
			t.Fatalf("seed %d: Pending = %d after drain, want 0", seed, k.Pending())
		}
	}
}
