// Package load holds the latency histogram the benchmark (bench/)
// records client-observed request latencies into: HDR-style log buckets,
// one histogram per worker and operation class, merged after the run.
package load

import (
	"math/bits"
	"time"
)

// histogram buckets: exact counts for values 0–63ns, then 64
// sub-buckets per power of two. Index v for v < 64, else
// 64*exp + v>>exp with exp = bits.Len64(v)-7, which is continuous at
// the seams and keeps relative error under 1/64 ≈ 1.6% — the classic
// HDR layout. 64 ns–1 hour spans exps 0–35, so the bucket array stays
// a few KB.
const (
	histSubBuckets = 64
	histMaxExp     = 36 // values above ~1.2h clamp into the last bucket run
	histBuckets    = histSubBuckets * (histMaxExp + 2)
)

// Histogram is an HDR-style latency histogram: log-bucketed with 64
// sub-buckets per octave, so quantiles are accurate to ~1.6% at any
// magnitude while recording stays two array ops. Not safe for
// concurrent use — the benchmark keeps one per worker per operation
// and merges at the end, which also keeps the hot path allocation- and
// contention-free.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 7
	if exp > histMaxExp {
		exp = histMaxExp
		v = 127 << histMaxExp // clamp into the top bucket
	}
	return histSubBuckets*exp + int(v>>uint(exp))
}

// bucketValue returns the representative (midpoint) duration for a
// bucket index — the inverse of bucketIndex up to sub-bucket width.
func bucketValue(idx int) time.Duration {
	if idx < 2*histSubBuckets {
		// exp 0 covers indexes 64–127 identically; below 64 is exact.
		return time.Duration(idx)
	}
	exp := idx/histSubBuckets - 1
	base := uint64(idx-histSubBuckets*exp) << uint(exp)
	return time.Duration(base + 1<<uint(exp)/2)
}

// Record adds one observation. Negative durations (clock steps) count
// as zero rather than corrupting a bucket.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(uint64(d))]++
	h.sum += d
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact mean (the sum is kept outside the buckets).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min and Max are exact, not bucket-quantized.
func (h *Histogram) Min() time.Duration { return h.min }
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the latency at quantile q in [0, 1], accurate to the
// bucket width (~1.6%). The extremes return the exact min/max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the target observation, 1-based.
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds other into h, combining per-worker histograms after a
// run.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}
