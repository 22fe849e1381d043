package trace

import "math/bits"

// NumBuckets is the number of log2 histogram buckets: bucket 0 counts
// the value 0, bucket i (i >= 1) counts values in [2^(i-1), 2^i - 1].
const NumBuckets = 65

// Histogram is a log2-scaled latency histogram. The zero value is
// ready to use.
type Histogram struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
}

// BucketIndex returns the bucket a value falls into.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// BucketBounds returns the inclusive [lo, hi] range of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	return uint64(1) << uint(i-1), uint64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[BucketIndex(v)]++ // sanitized: bits.Len64 is at most 64 and there are 65 buckets
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}
