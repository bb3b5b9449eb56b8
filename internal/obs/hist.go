// Package obs is the service observability layer: lock-cheap fixed-bucket
// latency histograms, per-request trace spans with a bounded in-memory ring,
// and Prometheus text exposition helpers. Everything on the hot path is a
// handful of atomic operations — no locks, no allocation — so the
// instrumentation can ride inside the serving loop without perturbing the
// latencies it measures.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of histogram buckets, including the +Inf
// overflow bucket.
const NumBuckets = 28

// BucketBound returns the inclusive upper bound of bucket i in microseconds:
// log-spaced powers of two from 1µs (bucket 0) through 2^26µs ≈ 67s
// (bucket 26), with bucket 27 catching everything above as +Inf.
func BucketBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1) << i)
}

// bucketOf maps an observation (microseconds) to its bucket: the smallest i
// with v <= 2^i.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// Histogram is a fixed-bucket log-spaced latency histogram safe for
// concurrent writers. Observe is three atomic adds; readers take a Snapshot
// and compute quantiles from it. The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value (in microseconds; negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations in microseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot copies the histogram state for consistent-enough reading: each
// cell is loaded atomically, so a snapshot taken under concurrent writes is
// a valid histogram even if it straddles a few in-flight observations.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Quantile is shorthand for Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Snapshot is a point-in-time copy of a Histogram.
type Snapshot struct {
	Counts [NumBuckets]int64
	Sum    int64
	Count  int64
}

// Quantile extracts the q-quantile from the bucket counts, in microseconds,
// interpolating linearly within the bucket that holds the rank (the
// Prometheus histogram_quantile rule). q is clamped to [0, 1]: q <= 0
// reports the lower bound of the lowest occupied bucket and q = 1 the upper
// bound of the highest. Observations that landed in the +Inf bucket report
// that bucket's finite lower bound (2^26µs). Returns 0 for an empty
// histogram.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(s.Count))
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = BucketBound(i - 1)
			}
			if i == NumBuckets-1 {
				return lower // +Inf bucket: report its finite lower bound
			}
			upper := BucketBound(i)
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + float64((upper-lower)*frac)
		}
		cum += c
	}
	return BucketBound(NumBuckets - 2)
}

// Mean returns the mean observation in microseconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
