package hdr

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// exactQuantile mirrors Recorder.Quantile's rank rule on raw samples:
// the ceil(q*n)-th smallest sample.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestBucketMapping checks that every value lands in a bucket whose
// bounds contain it and that the mapping is monotone.
func TestBucketMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(v int64) {
		idx := bucketIdx(v)
		low, high := bucketBounds(idx)
		if v < low || v > high {
			t.Fatalf("value %d mapped to bucket %d [%d,%d]", v, idx, low, high)
		}
		if high-low > 0 && float64(high-low)/float64(low) > 1.0/subCount+1e-9 {
			t.Fatalf("bucket %d [%d,%d] wider than 1/%d relative", idx, low, high, subCount)
		}
	}
	for v := int64(0); v < 10000; v++ {
		check(v)
	}
	prev := -1
	for v := int64(0); v < 1<<20; v = v*2 + 1 {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d", v)
		}
		prev = idx
		check(v)
	}
	for i := 0; i < 10000; i++ {
		check(rng.Int63())
	}
}

// TestQuantileVsOracle records lognormal-ish latency samples and checks
// p50/p90/p99/p999 against the exact sorted-sample oracle within the
// recorder's advertised 1/32 relative error (plus slack for the
// midpoint rule).
func TestQuantileVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	r := new(Recorder)
	samples := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Latency-shaped: exp(N(13, 1.5)) ns ~ hundreds of µs with a
		// long right tail into tens of ms.
		v := int64(math.Exp(13 + 1.5*rng.NormFloat64()))
		samples = append(samples, v)
		r.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if r.Count() != n {
		t.Fatalf("count = %d, want %d", r.Count(), n)
	}
	if r.Min() != samples[0] || r.Max() != samples[n-1] {
		t.Fatalf("min/max = %d/%d, want %d/%d", r.Min(), r.Max(), samples[0], samples[n-1])
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	if mean := r.Mean(); relErr(mean, sum/n) > 1e-12 {
		t.Fatalf("mean = %v, want %v (exact)", mean, sum/n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(r.Quantile(q))
		want := float64(exactQuantile(samples, q))
		if relErr(got, want) > 2.0/subCount {
			t.Fatalf("q%.3f = %v, oracle %v, rel err %.4f > %.4f",
				q, got, want, relErr(got, want), 2.0/subCount)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// TestConcurrentRecord hammers Record from many goroutines under the
// race detector and checks the aggregate count and bounds.
func TestConcurrentRecord(t *testing.T) {
	r := new(Recorder)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				r.Record(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	if r.Count() != workers*per {
		t.Fatalf("count = %d, want %d", r.Count(), workers*per)
	}
	if r.Quantile(0.5) < r.Min() || r.Quantile(0.5) > r.Max() {
		t.Fatalf("median %d outside [%d,%d]", r.Quantile(0.5), r.Min(), r.Max())
	}
}

// TestMerge checks that merging two recorders matches recording the
// union into one.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b, both := new(Recorder), new(Recorder), new(Recorder)
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merge count/min/max mismatch")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merge q%v = %d, want %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

// TestNegativeAndZero clamps negatives and keeps zeros exact.
func TestNegativeAndZero(t *testing.T) {
	r := new(Recorder)
	r.Record(-5)
	r.Record(0)
	r.Record(3)
	if r.Count() != 3 || r.Min() != 0 || r.Max() != 3 {
		t.Fatalf("count/min/max = %d/%d/%d", r.Count(), r.Min(), r.Max())
	}
	if got := r.Quantile(1); got != 3 {
		t.Fatalf("q1 = %d, want 3 (exact unit bucket)", got)
	}
}

// TestZeroValueReady: a Recorder declared, not built, is empty and
// keeps its minimum from the first sample on.
func TestZeroValueReady(t *testing.T) {
	var r Recorder
	if r.Count() != 0 || r.Min() != 0 || r.Max() != 0 || r.Quantile(0.5) != 0 {
		t.Fatalf("empty count/min/max/median = %d/%d/%d/%d", r.Count(), r.Min(), r.Max(), r.Quantile(0.5))
	}
	for _, v := range []int64{5, 3, 9} {
		r.Record(v)
	}
	if r.Min() != 3 || r.Max() != 9 || r.Mean() != 17.0/3 {
		t.Fatalf("min/max/mean = %d/%d/%v, want 3/9/%v", r.Min(), r.Max(), r.Mean(), 17.0/3)
	}
	if q0, q1 := r.Quantile(0), r.Quantile(1); q0 != r.Min() || q1 != r.Max() {
		t.Fatalf("q0/q1 = %d/%d, want min/max 3/9", q0, q1)
	}
}
