// Package stats provides the measurement primitives used by the CEIO
// benchmarks: log-bucketed latency histograms with tail percentiles,
// throughput meters, exponentially-weighted means, and time-series
// recorders for the dynamic-scenario figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Histogram is a log-linear latency histogram in the style of HdrHistogram:
// values are bucketed with bounded relative error (~1/subBuckets), which is
// what tail-latency reporting (P99, P99.9) needs without storing samples.
// Values are int64 (nanoseconds in this codebase). The zero value is ready
// to use.
//
// counts is indexed by bucketIndex and grows lazily to the highest bucket
// recorded (at most 1888 entries, for math.MaxInt64), so Record is an
// index and an increment, with no hashing on the per-packet path.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
	hasMin bool
}

const subBucketBits = 5 // 32 sub-buckets per power of two: <=3.1% relative error

// bucketIndex maps v to a log-linear bucket index.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBucketBits {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	top := int(v >> (uint(exp) - subBucketBits)) // in [2^subBucketBits, 2^(subBucketBits+1))
	return (exp-subBucketBits+1)<<subBucketBits + (top - 1<<subBucketBits)
}

// bucketValue returns a representative (upper-mid) value for index i,
// inverse of bucketIndex up to the bucket width.
func bucketValue(i int) int64 {
	if i < 1<<subBucketBits {
		return int64(i)
	}
	exp := i>>subBucketBits + subBucketBits - 1
	sub := i & (1<<subBucketBits - 1)
	low := (int64(1<<subBucketBits) + int64(sub)) << (uint(exp) - subBucketBits)
	width := int64(1) << (uint(exp) - subBucketBits)
	return low + width/2
}

// grow extends counts to at least n buckets. Entries past len(counts)
// were never written, so reslicing into spare capacity reads zeros, and
// only a capacity increase allocates.
func (h *Histogram) grow(n int) {
	if n > len(h.counts) {
		h.counts = slices.Grow(h.counts, n-len(h.counts))[:n]
	}
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	i := bucketIndex(v)
	if i >= len(h.counts) {
		h.grow(i + 1)
	}
	h.counts[i]++
	h.total++
	h.sum += float64(v)
	if !h.hasMin || v < h.min {
		h.min, h.hasMin = v, true
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return exact extrema (not bucketed).
func (h *Histogram) Min() int64 { return h.min }
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at quantile q in [0,1] with the histogram's
// relative error. The exact max is returned for q >= 1.
func (h *Histogram) Percentile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	// Walk buckets in index order; none past max's bucket holds a count.
	maxIdx := min(bucketIndex(h.max), len(h.counts)-1)
	var cum uint64
	for i := 0; i <= maxIdx; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P99 and P999 are the percentiles the paper reports.
func (h *Histogram) P50() int64  { return h.Percentile(0.50) }
func (h *Histogram) P99() int64  { return h.Percentile(0.99) }
func (h *Histogram) P999() int64 { return h.Percentile(0.999) }

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	h.grow(len(other.counts))
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if !h.hasMin || other.min < h.min {
		h.min, h.hasMin = other.min, true
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears all observations, keeping the bucket storage for reuse.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total = 0
	h.sum = 0
	h.min, h.max, h.hasMin = 0, 0, false
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p99.9=%d max=%d",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.max)
}
