package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// nominalSeconds is the measured-phase length the workload shapes (in
// sim.go and workloads.go) are written for. A run asked to measure for s seconds
// multiplies every simulated or paced duration by s/nominalSeconds — one
// common factor, never N, rates or mixes — so BENCHMARK.json's
// run_seconds is the single knob that fits the suite into a time budget.
const nominalSeconds = 20.0

// sizing is how far one invocation shrinks the workload shapes.
type sizing struct {
	// nodeDiv divides every node count (1, or 10 under -smoke).
	nodeDiv int
	// dur multiplies every simulated or paced duration.
	dur float64
}

func (s sizing) nodes(n int) int { return max(2, n/s.nodeDiv) }

func (s sizing) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.dur)
}

// runConfig is one invocation: one workload on inputs made from one seed.
type runConfig struct {
	workload string
	seed     int64
	size     sizing
	// traced selects the traced run (layer probes, span files, invariant
	// checking, per-layer metrics) over the measured run (end-to-end
	// metrics only). The two never share numbers.
	traced bool
	outDir string
}

// outcome is what one invocation reports.
type outcome struct {
	// attempted and failed count operations. One operation is one
	// publish; it fails if the harness could not issue it or the run
	// that carried it ended in an error. (Missed deliveries are the
	// system's measured behaviour under injected loss and are reported
	// as delivery_rate and bench.undelivered, not as failures.)
	attempted, failed uint64
	// violations lists every failed output check; empty means correct.
	violations []string
	// metrics holds every number measured, by name; main prints the ones
	// BENCHMARK.json lists for the mode that ran.
	metrics map[string]float64
	// samples is the sample count behind each percentile metric.
	samples map[string]uint64
	// batchIO records whether the live dispatcher used recvmmsg/sendmmsg
	// (nil for simulation workloads).
	batchIO *bool
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]uint64{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) add(name string, v float64) { o.metrics[name] += v }

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// setQuantiles records p50 and p99 of h under prefix+"_p50"+suffix and
// prefix+"_p99"+suffix, in units of unit nanoseconds, with their sample
// count.
func (o *outcome) setQuantiles(prefix, suffix string, h *hist, unit time.Duration) {
	for _, q := range []struct {
		tag string
		q   float64
	}{{"_p50", 0.5}, {"_p99", 0.99}} {
		name := prefix + q.tag + suffix
		o.set(name, h.Quantile(q.q)/float64(unit))
		o.samples[name] = h.Count()
	}
}

// ratio is a/b, and 0 when b is 0 — for shares and per-operation costs
// whose denominator a degenerate run can empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle of vs (mean of the middle two for an even
// count); NaN for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
