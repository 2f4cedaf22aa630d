package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histSubBits fixes the histogram's resolution: 2^6 = 64 sub-buckets per
// power of two, so a bucket is at most 1/64 ≈ 1.6 % of its lower edge
// wide and a quantile read from a bucket midpoint is off by under 1 %.
const histSubBits = 6

// hist is a log-bucketed histogram of non-negative int64 samples
// (nanoseconds everywhere in this harness). Record is one atomic add, so
// the live dispatcher's delivery goroutines share one histogram without
// a lock on the path being measured. The zero value is ready.
type hist struct {
	buckets [(64 - histSubBits) << histSubBits]atomic.Uint64
	count   atomic.Uint64
	max     atomic.Int64
}

func histBucket(v int64) int {
	if v < 1<<histSubBits {
		return int(v) // one bucket per value: exact
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return (shift+1)<<histSubBits + int(v>>shift) - 1<<histSubBits
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < 1<<histSubBits {
		return int64(i), int64(i) + 1
	}
	shift := i>>histSubBits - 1
	lo = int64(i&(1<<histSubBits-1)+1<<histSubBits) << shift
	return lo, lo + 1<<shift
}

// Record adds one sample; negative values count as zero.
func (h *hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count is the number of samples recorded.
func (h *hist) Count() uint64 { return h.count.Load() }

// Max is the largest sample recorded, exactly.
func (h *hist) Max() int64 { return h.max.Load() }

// Quantile returns the midpoint of the bucket holding the sample of rank
// ceil(q·count), and 0 for an empty histogram. Call it once recording
// has stopped.
func (h *hist) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + float64(hi-lo-1)/2
		}
	}
	return float64(h.Max())
}

// Merge adds every sample of o to h.
func (h *hist) Merge(o *hist) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(o.Count())
	if m := o.Max(); m > h.max.Load() {
		h.max.Store(m)
	}
}
