package differential

import (
	"testing"

	"repro/internal/core"
	"repro/internal/live"
)

// matrix runs check on every algorithm for seeds 1–3 (seed 1 only
// under -short), one subtest each, named by algorithm, infix and seed.
func matrix(t *testing.T, infix string, check func(Case) error) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, alg := range []core.Algorithm{core.Push, core.CombinedPull, core.Hybrid, core.RandomPull} {
		for _, seed := range seeds {
			c := Case{Seed: seed, N: 8, Algorithm: alg}
			t.Run(c.Algorithm.String()+infix+string(rune('0'+seed)), func(t *testing.T) {
				if err := check(c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSimMatchesLive is the differential matrix: for each seed and
// algorithm, the simulator and the live UDP cluster replay the same
// publish plan over the same overlay, and every subscriber must end
// up with the identical set of core event IDs. The live nodes share
// the dispatcher's batched sockets and coalesce envelopes, so the
// matrix also shows that coalescing creates, loses and reorders no
// protocol meaning. Hybrid (the adaptive controller) and random pull
// run on sockets since the live node drives the simulator's core.
func TestSimMatchesLive(t *testing.T) {
	matrix(t, "/", Run)
}

// TestSimMatchesHostedLive re-runs the matrix with the live nodes on
// the dispatcher shape of the live benchmark workloads: two shard
// sockets and batches of 128 datagrams, so envelopes cross between
// shard sockets and coalesce into deep batches, yet the fixed point
// the simulator predicts must not move.
func TestSimMatchesHostedLive(t *testing.T) {
	matrix(t, "/hosted/", func(c Case) error {
		return run(c, live.DispatcherConfig{Sockets: 2, Batch: 128})
	})
}
