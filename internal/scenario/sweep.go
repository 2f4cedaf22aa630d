package scenario

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// RunAll executes every parameter set on its own simulation kernel,
// running up to GOMAXPROCS simulations concurrently, and returns the
// results in input order. Each simulation is single-threaded and
// deterministic under its seed; the concurrency is across independent
// runs, so results do not depend on scheduling.
//
// The first error aborts nothing: all runs complete, and the error
// returned wraps the first failure (its Result slot is zero).
func RunAll(params []Params) ([]Result, error) {
	results := make([]Result, len(params))
	errs := make([]error, len(params))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(params) {
		workers = len(params)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	// Buffering to len(params) lets the feeder below enqueue everything
	// without blocking on worker pace.
	jobs := make(chan int, len(params))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = Run(params[i])
			}
		}()
	}
	for i := range params {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("scenario: run %d of %d failed: %w", i, len(params), err)
		}
	}
	return results, nil
}

// SeedStats summarizes one metric across several seeds. Std is the
// population standard deviation (σ, dividing by k), not the sample
// estimator: the k seeds are the whole population under study, not a
// sample of a larger one.
type SeedStats struct {
	Mean, Std, Min, Max float64
	Values              []float64
}

// RelSpread returns (Max-Min)/Mean — the paper's "variations are
// limited, around 1%-2%" measure (Sec. IV-A). Returns 0 for a zero
// mean.
func (s SeedStats) RelSpread() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Mean
}

// RunSeeds runs the same configuration under the k seeds p.Seed …
// p.Seed+k−1 and summarizes the delivery rate. The paper used 10 seeds
// to establish that a single run is representative. k must be at least
// 1: zero runs have no mean (0/0) and would leak NaN/±Inf into
// SeedStats.
func RunSeeds(p Params, k int) (SeedStats, error) {
	if k < 1 {
		return SeedStats{}, fmt.Errorf("scenario: RunSeeds needs k >= 1 seeds, got %d", k)
	}
	params := make([]Params, k)
	for i := range params {
		params[i] = p
		params[i].Seed = p.Seed + int64(i)
	}
	results, err := RunAll(params)
	if err != nil {
		return SeedStats{}, err
	}
	stats := SeedStats{
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
		Values: make([]float64, 0, k),
	}
	for _, r := range results {
		v := r.DeliveryRate
		stats.Values = append(stats.Values, v)
		stats.Mean += v
		if v < stats.Min {
			stats.Min = v
		}
		if v > stats.Max {
			stats.Max = v
		}
	}
	stats.Mean /= float64(k)
	for _, v := range stats.Values {
		d := v - stats.Mean
		stats.Std += d * d
	}
	stats.Std = math.Sqrt(stats.Std / float64(k))
	return stats, nil
}
