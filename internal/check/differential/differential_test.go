package differential

import (
	"testing"

	"repro/internal/core"
)

// sharedCoreLegs are the algorithms the live node runs only since it
// drives the simulator's core: hybrid (the adaptive controller) and
// random pull.
var sharedCoreLegs = []core.Algorithm{core.Hybrid, core.RandomPull}

// TestSimMatchesLive is the differential matrix: for each seed and
// algorithm, the simulator and the live UDP cluster replay the same
// publish plan over the same overlay, and every subscriber must end
// up with the identical set of core event IDs.
func TestSimMatchesLive(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, alg := range append([]core.Algorithm{core.Push, core.CombinedPull}, sharedCoreLegs...) {
		for _, seed := range seeds {
			c := Case{Seed: seed, N: 8, Algorithm: alg}
			t.Run(c.Algorithm.String()+"/"+string(rune('0'+seed)), func(t *testing.T) {
				if err := Run(c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSimMatchesHostedLive extends the differential through the
// Dispatcher: the live side shares batched sockets and coalesces
// envelopes, yet must reach the exact fixed point the simulator
// predicts — coalescing must not create, lose, or reorder protocol
// meaning.
func TestSimMatchesHostedLive(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, alg := range []core.Algorithm{core.Push, core.CombinedPull} {
		for _, seed := range seeds {
			c := Case{Seed: seed, N: 8, Algorithm: alg, Hosted: true}
			t.Run(c.Algorithm.String()+"/hosted/"+string(rune('0'+seed)), func(t *testing.T) {
				if err := Run(c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for _, alg := range sharedCoreLegs {
		for _, seed := range []int64{1, 2, 3} {
			if testing.Short() && seed > 1 {
				break
			}
			c := Case{Seed: seed, N: 8, Algorithm: alg, Hosted: true}
			t.Run(c.Algorithm.String()+"/hosted/"+string(rune('0'+seed)), func(t *testing.T) {
				if err := Run(c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
