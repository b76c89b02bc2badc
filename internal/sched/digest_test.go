package sched

import (
	"math/rand"
	"slices"
	"testing"

	"duet/internal/sim"
)

// TestDigestQuantileErrorBound: against exact nearest-rank percentiles of
// several deterministic distributions, the digest must return a value q
// with exact <= q <= exact*(1+DigestRelError) — the documented bound.
func TestDigestQuantileErrorBound(t *testing.T) {
	distributions := map[string]func(r *rand.Rand) sim.Time{
		"uniform":     func(r *rand.Rand) sim.Time { return sim.Time(r.Int63n(5_000_000)) },
		"exponential": func(r *rand.Rand) sim.Time { return sim.Time(r.ExpFloat64() * 250_000) },
		"bimodal": func(r *rand.Rand) sim.Time {
			if r.Intn(10) == 0 {
				return sim.Time(10_000_000 + r.Int63n(1_000_000)) // slow tail
			}
			return sim.Time(20_000 + r.Int63n(5_000))
		},
		"tiny": func(r *rand.Rand) sim.Time { return sim.Time(r.Int63n(100)) }, // exact region
	}
	for name, draw := range distributions {
		r := rand.New(rand.NewSource(7))
		var d Digest
		samples := make([]sim.Time, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw(r)
			samples = append(samples, v)
			d.Add(v)
		}
		slices.Sort(samples)
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			exact := PercentileSorted(samples, p)
			got := d.Quantile(p)
			if got < exact {
				t.Errorf("%s p%v: digest %v below exact %v", name, p, got, exact)
			}
			bound := exact + sim.Time(float64(exact)*DigestRelError) + 1
			if got > bound {
				t.Errorf("%s p%v: digest %v exceeds exact %v by more than the %.2f%% bound",
					name, p, got, exact, 100*DigestRelError)
			}
		}
	}
}

// TestDigestMergePartitionInvariance: a digest fed a stream must equal
// the merge of digests fed any partition of it, in any merge order —
// the property the cluster's per-shard merge rests on.
func TestDigestMergePartitionInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var whole Digest
	parts := make([]Digest, 4)
	for i := 0; i < 10000; i++ {
		v := sim.Time(r.ExpFloat64() * 300_000)
		whole.Add(v)
		parts[r.Intn(4)].Add(v)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}, {2, 3, 1, 0}} {
		var merged Digest
		for _, i := range order {
			merged.Merge(&parts[i])
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("order %v: merged count %d != %d", order, merged.Count(), whole.Count())
		}
		for _, p := range []float64{50, 99} {
			if merged.Quantile(p) != whole.Quantile(p) {
				t.Fatalf("order %v: merged p%v %v != whole %v", order, p, merged.Quantile(p), whole.Quantile(p))
			}
		}
	}
}

// TestDigestFixedMemory: the bucket table must stay within its
// documented bound no matter how many samples stream through, including
// extreme values.
func TestDigestFixedMemory(t *testing.T) {
	var d Digest
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200000; i++ {
		d.Add(sim.Time(r.Int63()))
	}
	d.Add(sim.Time(1<<63 - 1))
	d.Add(0)
	d.Add(-5) // clamped, not panicking
	if len(d.buckets) > DigestMaxBuckets {
		t.Fatalf("bucket table grew to %d entries, bound is %d", len(d.buckets), DigestMaxBuckets)
	}
	if d.Count() != 200003 {
		t.Fatalf("count = %d", d.Count())
	}
	if d.neg != 1 {
		t.Fatalf("negative clamp count = %d, want 1", d.neg)
	}
}

// TestDigestSmallValuesExact: the unit-width region must reproduce exact
// nearest-rank percentiles with zero error.
func TestDigestSmallValuesExact(t *testing.T) {
	var d Digest
	samples := []sim.Time{3, 9, 9, 20, 41, 77, 100, 127}
	for _, v := range samples {
		d.Add(v)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if got, want := d.Quantile(p), PercentileSorted(sorted, p); got != want {
			t.Fatalf("p%v = %v, want exact %v", p, got, want)
		}
	}
}

// TestDigestSingleSample: with one sample every percentile names that
// sample — exactly in the unit region, within the documented relative
// bound above it (rank clamping must not underflow at p=0).
func TestDigestSingleSample(t *testing.T) {
	for _, v := range []sim.Time{0, 1, 127, 128, 1_000_000} {
		var d Digest
		d.Add(v)
		for _, p := range []float64{0, 1, 50, 99, 100} {
			got := d.Quantile(p)
			if got < v {
				t.Fatalf("sample %v p%v = %v, below the sample", v, p, got)
			}
			if bound := v + sim.Time(float64(v)*DigestRelError) + 1; got > bound {
				t.Fatalf("sample %v p%v = %v, beyond the %.2f%% bound", v, p, got, 100*DigestRelError)
			}
			if v < digestSubCount && got != v {
				t.Fatalf("sample %v (exact region) p%v = %v", v, p, got)
			}
		}
	}
}

// TestDigestMergeDisjointRanges: merging digests whose samples occupy
// disjoint value ranges must place low quantiles in the low range and
// high quantiles in the high range with exact rank accounting — the
// shape of a cluster merge where one shard is saturated and another
// idle.
func TestDigestMergeDisjointRanges(t *testing.T) {
	var low, high Digest
	for i := 0; i < 90; i++ {
		low.Add(sim.Time(i)) // exact region: 0..89
	}
	for i := 0; i < 10; i++ {
		high.Add(sim.Time(10_000_000 + i*1000)) // a far-away tail
	}
	var merged Digest
	merged.Merge(&low)
	merged.Merge(&high)
	if merged.Count() != 100 {
		t.Fatalf("merged count = %d", merged.Count())
	}
	// Ranks 1..90 are the low range; nearest-rank p50 is rank 50 = 49.
	if got := merged.Quantile(50); got != 49 {
		t.Fatalf("p50 = %v, want 49", got)
	}
	if got := merged.Quantile(90); got != 89 {
		t.Fatalf("p90 = %v, want 89 (the top of the low range)", got)
	}
	// Rank 91+ crosses into the tail: p91 and p99 must land there.
	for _, p := range []float64{91, 99, 100} {
		if got := merged.Quantile(p); got < 10_000_000 {
			t.Fatalf("p%v = %v, want the high range", p, got)
		}
	}
	// The gap between the ranges contains no mass: no quantile may
	// fabricate a value strictly between the two clusters.
	for p := 1.0; p <= 100; p++ {
		got := merged.Quantile(p)
		if got > 89 && got < 10_000_000 {
			t.Fatalf("p%v = %v, inside the empty gap", p, got)
		}
	}
}

func TestDigestEmpty(t *testing.T) {
	var d Digest
	if d.Quantile(50) != 0 || d.Count() != 0 {
		t.Fatal("empty digest not zero-valued")
	}
	d.Merge(nil) // must not panic
	var other Digest
	d.Merge(&other)
	if d.Count() != 0 {
		t.Fatal("merging empties changed the count")
	}
}

// TestDigestIndexRoundTrip: every bucket's representative value must map
// back to that bucket (the upper edge is inside the bucket), and indices
// must be monotone in the value.
func TestDigestIndexRoundTrip(t *testing.T) {
	for i := 0; i < DigestMaxBuckets; i++ {
		v := digestValue(i)
		if got := digestIndex(int64(v)); got != i {
			t.Fatalf("bucket %d: upper edge %d maps to bucket %d", i, v, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<62 + 12345, 1<<63 - 1} {
		i := digestIndex(v)
		if i < prev {
			t.Fatalf("index not monotone at %d", v)
		}
		prev = i
	}
}

// TestStatsModeNames pins the -stats flag surface: every mode
// round-trips through its text form and unknown names are refused.
func TestStatsModeNames(t *testing.T) {
	for m := StatsMode(0); m < NumStatsModes; m++ {
		text, err := m.MarshalText()
		var got StatsMode
		if err != nil || string(text) != m.String() || got.UnmarshalText(text) != nil || got != m {
			t.Fatalf("round trip %v: text %q err %v, got %v", m, text, err, got)
		}
	}
	got := StatsStreaming
	if err := got.UnmarshalText([]byte("nonesuch")); err == nil || got != StatsStreaming {
		t.Fatalf("bogus stats mode parsed: err %v, mode now %v", err, got)
	}
}
