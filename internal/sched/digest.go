package sched

import (
	"math"
	"math/bits"

	"duet/internal/sim"
)

// Digest is a fixed-memory streaming quantile estimator over sim.Time
// samples — the serve-scale replacement for retaining every job's sojourn
// (O(jobs) memory, re-sorted per percentile query).
//
// Layout: a log-spaced histogram in the HDR style. Values below 2^sub
// (sub = DigestSubBits) land in exact unit-width buckets; larger values
// are bucketed by their top sub+1 bits, i.e. 2^sub sub-buckets per
// power-of-two octave. Bucket indexing is pure integer arithmetic
// (leading-zero count + shifts), so it is deterministic across platforms
// — no floating-point logs whose rounding could differ.
//
// Accuracy: Quantile returns the upper edge of the bucket holding the
// nearest-rank sample, so for the true nearest-rank value v it returns
// q with v <= q < v * (1 + DigestRelError) — a guaranteed relative
// value error below 2^-DigestSubBits (~0.78%), exact for v < 2^sub.
// Rank semantics are exact: bucket counts are exact, only the value
// within a bucket is quantized.
//
// Memory: the bucket table is bounded by DigestMaxBuckets counts
// (~57 KB fully touched) independent of sample count, and is allocated
// lazily up to the highest touched index — a digest over microsecond-to-
// millisecond latencies stays in the low kilobytes.
//
// Merging: Merge adds bucket counts elementwise. Because addition
// commutes, a merged digest is identical whatever the merge order, and a
// digest fed a stream equals the merge of digests fed any partition of
// that stream — the property that makes per-shard digests exact to
// combine, unlike P² markers (not mergeable) or GK summaries (merging
// inflates their rank error).
//
// The zero Digest is ready to use.
type Digest struct {
	count   uint64 // total samples, including negatives clamped to 0
	neg     uint64 // samples below zero (clamped into bucket 0)
	buckets []uint64
}

// Digest accuracy/size constants.
const (
	// DigestSubBits is the sub-bucket resolution: 2^DigestSubBits
	// sub-buckets per octave.
	DigestSubBits  = 7
	digestSubCount = 1 << DigestSubBits

	// DigestMaxBuckets bounds the bucket table: 63-DigestSubBits full
	// octaves above the exact region covers every positive int64.
	DigestMaxBuckets = digestSubCount * (64 - DigestSubBits)
)

// DigestRelError is the documented relative value error bound of
// Quantile: 2^-DigestSubBits.
var DigestRelError = math.Ldexp(1, -DigestSubBits)

// digestIndex maps a non-negative value to its bucket.
func digestIndex(v int64) int {
	if v < digestSubCount {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // >= DigestSubBits
	shift := exp - DigestSubBits
	sub := int(v>>shift) - digestSubCount // [0, digestSubCount)
	return (shift+1)*digestSubCount + sub
}

// digestValue returns the inclusive upper edge of bucket i — the value
// Quantile reports for samples landing in it.
func digestValue(i int) sim.Time {
	if i < digestSubCount {
		return sim.Time(i)
	}
	shift := i/digestSubCount - 1
	sub := int64(i%digestSubCount + digestSubCount)
	return sim.Time((sub+1)<<shift - 1)
}

// Add records one sample. Negative samples count toward ranks but are
// clamped to the zero bucket (sojourns are non-negative by construction;
// the clamp keeps a corrupted sample from corrupting the table).
func (d *Digest) Add(v sim.Time) {
	d.count++
	if v < 0 {
		d.neg++
		v = 0
	}
	i := digestIndex(int64(v))
	if i >= len(d.buckets) {
		// append (not a fresh make+copy) so a gradually climbing
		// high-water bucket grows the table with amortized doubling.
		d.buckets = append(d.buckets, make([]uint64, i+1-len(d.buckets))...)
	}
	d.buckets[i]++
}

// MemoryBytes reports the digest's bucket-table footprint — the number
// streaming-mode scale tests pin flat while the job count grows. It is
// bounded by 8*DigestMaxBuckets regardless of sample count.
func (d *Digest) MemoryBytes() int { return 8 * len(d.buckets) }

// Merge folds o into d elementwise. Merge order never changes the result.
func (d *Digest) Merge(o *Digest) {
	if o == nil {
		return
	}
	d.count += o.count
	d.neg += o.neg
	if len(o.buckets) > len(d.buckets) {
		grown := make([]uint64, len(o.buckets))
		copy(grown, d.buckets)
		d.buckets = grown
	}
	for i, c := range o.buckets {
		d.buckets[i] += c
	}
}

// Quantile returns the nearest-rank p-th percentile with the documented
// relative value error; zero when the digest is empty. It mirrors
// PercentileSorted's rank convention so exact and streaming stats agree on
// which sample a percentile names.
func (d *Digest) Quantile(p float64) sim.Time {
	if d.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(d.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > d.count {
		rank = d.count
	}
	var cum uint64
	for i, c := range d.buckets {
		cum += c
		if cum >= rank {
			return digestValue(i)
		}
	}
	return digestValue(len(d.buckets) - 1) // unreachable when counts are consistent
}
