package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/sim"
)

// LatencyHistogram accumulates virtual-time latencies in logarithmic
// buckets (~8.3% relative resolution) and answers percentile queries.
// The paper discusses recovery latency only qualitatively ("the push
// approach has a bigger recovery latency than pull", Sec. IV-C); the
// histogram makes the comparison quantitative.
type LatencyHistogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    sim.Time
	max    sim.Time
}

// bucketBase is the left edge of bucket 0.
const bucketBase = 10 * time.Microsecond

// bucketRatio is the growth factor between adjacent bucket edges.
const bucketRatio = 1.2

// numBuckets covers 10 µs … >10 min.
const numBuckets = 96

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *LatencyHistogram {
	return &LatencyHistogram{
		counts: make([]uint64, numBuckets),
		min:    math.MaxInt64,
	}
}

func bucketOf(d sim.Time) int {
	if d <= bucketBase {
		return 0
	}
	b := int(math.Log(float64(d)/float64(bucketBase)) / math.Log(bucketRatio))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketUpper returns the upper edge of bucket b — the value percentile
// queries report for samples in it.
func bucketUpper(b int) sim.Time {
	return sim.Time(float64(bucketBase) * math.Pow(bucketRatio, float64(b+1)))
}

// Observe records one latency sample. Negative samples are a caller
// bug and panic.
func (h *LatencyHistogram) Observe(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative latency %v", d))
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *LatencyHistogram) Count() uint64 { return h.total }

// Mean returns the mean latency, or 0 without samples.
func (h *LatencyHistogram) Mean() sim.Time {
	if h.total == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.total))
}

// Min returns the smallest sample, or 0 without samples.
func (h *LatencyHistogram) Min() sim.Time {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 without samples.
func (h *LatencyHistogram) Max() sim.Time {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the latency below which the q-fraction of samples
// fall (0 < q ≤ 1), with the histogram's bucket resolution. Returns 0
// without samples.
func (h *LatencyHistogram) Quantile(q float64) sim.Time {
	if h.total == 0 {
		return 0
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of (0, 1]", q))
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			if b == 0 {
				return bucketBase
			}
			return bucketUpper(b)
		}
	}
	return h.max
}

// Quantiles returns several quantiles at once, in the order given.
func (h *LatencyHistogram) Quantiles(qs ...float64) []sim.Time {
	out := make([]sim.Time, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// Summary formats count/mean/p50/p99 for logs.
func (h *LatencyHistogram) Summary() string {
	if h.total == 0 {
		return "no samples"
	}
	qs := h.Quantiles(0.5, 0.99)
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean().Round(time.Microsecond),
		qs[0].Round(time.Microsecond), qs[1].Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}

// sortedDurations is a test helper contract: the histogram's quantile
// must bracket the exact quantile within one bucket ratio. Exported
// tests use ExactQuantile to verify.
func ExactQuantile(samples []sim.Time, q float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), samples...)
	slices.Sort(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}
