package stats

import (
	"math"
	"math/rand"
	"testing"
)

// mapHistogram is the map-backed histogram the slice-backed one replaced,
// kept as the reference its outputs must equal.
type mapHistogram struct {
	counts   map[int]uint64
	total    uint64
	sum      float64
	min, max int64
	hasMin   bool
}

func (h *mapHistogram) Record(v int64) {
	if h.counts == nil {
		h.counts = make(map[int]uint64)
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if !h.hasMin || v < h.min {
		h.min, h.hasMin = v, true
	}
	if v > h.max {
		h.max = v
	}
}

func (h *mapHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

func (h *mapHistogram) Percentile(q float64) int64 {
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
	var cum uint64
	for i := 0; i <= bucketIndex(h.max); i++ {
		c, ok := h.counts[i]
		if !ok {
			continue
		}
		cum += c
		if cum >= target {
			return min(max(bucketValue(i), h.min), h.max)
		}
	}
	return h.max
}

func (h *mapHistogram) Merge(o *mapHistogram) {
	if o.total == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int]uint64)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if !h.hasMin || o.min < h.min {
		h.min, h.hasMin = o.min, true
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *mapHistogram) Reset() { *h = mapHistogram{} }

// pair records into both implementations.
type pair struct {
	h   Histogram
	ref mapHistogram
}

func (p *pair) record(v int64) { p.h.Record(v); p.ref.Record(v) }

func (p *pair) check(t *testing.T, what string) {
	t.Helper()
	h, r := &p.h, &p.ref
	if h.Count() != r.total || h.Mean() != r.Mean() || h.Min() != r.min || h.Max() != r.max {
		t.Fatalf("%s: count/mean/min/max = %d/%v/%d/%d, reference %d/%v/%d/%d",
			what, h.Count(), h.Mean(), h.Min(), h.Max(), r.total, r.Mean(), r.min, r.max)
	}
	for _, q := range []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1, 2} {
		if got, want := h.Percentile(q), r.Percentile(q); got != want {
			t.Fatalf("%s: Percentile(%v) = %d, reference %d", what, q, got, want)
		}
	}
	if h.P50() != r.Percentile(0.5) || h.P99() != r.Percentile(0.99) || h.P999() != r.Percentile(0.999) {
		t.Fatalf("%s: P50/P99/P999 = %d/%d/%d diverge from the reference", what, h.P50(), h.P99(), h.P999())
	}
}

// randValue draws from a mix that spans every bucket range: negatives
// (clamped into bucket 0), 0, the exact small buckets, log-spread values
// up to 2^62, and math.MaxInt64 (the last bucket).
func randValue(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return -rng.Int63n(1 << 20)
	case 1:
		return 0
	case 2:
		return rng.Int63n(64)
	case 3:
		return math.MaxInt64
	default:
		return rng.Int63n(1 << uint(rng.Intn(62)+1))
	}
}

// The slice-backed histogram reports exactly what the map-backed one did,
// across random values, merges of histograms of different lengths in both
// directions, and Reset followed by reuse.
func TestHistogramMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var small, large pair
		for i := rng.Intn(200); i > 0; i-- {
			small.record(rng.Int63n(1 << 10))
		}
		for i := rng.Intn(200) + 1; i > 0; i-- {
			large.record(randValue(rng))
		}
		small.check(t, "small")
		large.check(t, "large")

		var into pair // empty receiver grows to the other's length
		into.h.Merge(&large.h)
		into.ref.Merge(&large.ref)
		into.check(t, "empty.Merge(large)")

		small.h.Merge(&large.h) // shorter receiver grows
		small.ref.Merge(&large.ref)
		small.check(t, "small.Merge(large)")

		var short pair
		short.record(rng.Int63n(32))
		large.h.Merge(&short.h) // longer receiver keeps its length
		large.ref.Merge(&short.ref)
		large.check(t, "large.Merge(short)")

		large.h.Reset()
		large.ref.Reset()
		large.check(t, "after Reset")
		for i := rng.Intn(50); i > 0; i-- {
			large.record(rng.Int63n(100))
		}
		large.check(t, "reuse after Reset")
	}
}
