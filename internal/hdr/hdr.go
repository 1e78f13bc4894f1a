// Package hdr provides an HDR-histogram-style log-bucketed latency
// recorder for the hot-path stage timers and tail-latency measurement.
// Keeping every raw sample under a mutex is ruinous for a subscriber
// recording several samples per message or an open-loop rate sweep
// recording hundreds of thousands of latencies from many workers, so
// the Recorder uses a fixed array of atomic bucket counters: recording
// is lock-free and allocation-free, memory is constant, and quantiles
// are read back with a bounded relative error of 1/32 (~3%) — the same
// trade HdrHistogram makes.
//
// Buckets are geometric: values below 32 get exact unit buckets, and
// every power-of-two octave above that is split into 32 sub-buckets, so
// the bucket width is always at most 1/32 of the value it records.
// Values are int64 (nanoseconds by convention); negative values clamp
// to zero.
package hdr

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// subBits fixes the per-octave resolution: 2^subBits sub-buckets per
// octave bounds the quantile error at 2^-subBits relative.
const (
	subBits  = 5
	subCount = 1 << subBits // 32
	// numBuckets covers the full non-negative int64 range: unit buckets
	// for [0,32) plus 32 sub-buckets for each of the (63-subBits)
	// octaves above.
	numBuckets = (64 - subBits) * subCount
)

// Recorder is a concurrent log-bucketed histogram. The zero value is an
// empty Recorder, ready to use. Record may be called from any number of
// goroutines; readers (Quantile, Mean, ...) see a consistent-enough
// view for reporting but should run after recording quiesces for exact
// counts.
type Recorder struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	// belowMax is math.MaxInt64 minus the smallest sample: kept that way
	// round so that zero means "no sample yet", and raised like max.
	belowMax atomic.Int64
}

// raise lifts a to v if v is larger.
func raise(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v int64) int {
	if v < subCount {
		return int(v)
	}
	// Shift v down so it lands in [subCount, 2*subCount); each octave
	// above the first contributes subCount buckets.
	exp := bits.Len64(uint64(v)) - subBits - 1
	return (exp+1)*subCount + int(uint64(v)>>uint(exp)) - subCount
}

// bucketBounds returns the [low, high] value range of a bucket.
func bucketBounds(idx int) (low, high int64) {
	if idx < subCount {
		return int64(idx), int64(idx)
	}
	exp := idx/subCount - 1
	sub := int64(idx%subCount + subCount)
	low = sub << uint(exp)
	high = low + (1 << uint(exp)) - 1
	return low, high
}

// Record adds one sample. Negative values clamp to zero.
func (r *Recorder) Record(v int64) {
	if v < 0 {
		v = 0
	}
	r.counts[bucketIdx(v)].Add(1)
	r.count.Add(1)
	r.sum.Add(v)
	raise(&r.belowMax, math.MaxInt64-v)
	raise(&r.max, v)
}

// Count reports the number of recorded samples.
func (r *Recorder) Count() uint64 { return r.count.Load() }

// Min reports the smallest recorded sample (0 when empty).
func (r *Recorder) Min() int64 {
	if r.count.Load() == 0 {
		return 0
	}
	return math.MaxInt64 - r.belowMax.Load()
}

// Max reports the largest recorded sample (0 when empty).
func (r *Recorder) Max() int64 { return r.max.Load() }

// Sum reports the exact total of all recorded samples.
func (r *Recorder) Sum() int64 { return r.sum.Load() }

// Mean reports the exact arithmetic mean (sums are kept per sample, not
// per bucket, so the mean carries no bucketing error).
func (r *Recorder) Mean() float64 {
	n := r.count.Load()
	if n == 0 {
		return 0
	}
	return float64(r.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile q in [0,1]: the midpoint of
// the bucket holding the ceil(q*n)-th smallest sample, clamped to the
// recorded min/max so q=0 and q=1 are exact. Relative error is bounded
// by the bucket width, 1/32 of the value.
func (r *Recorder) Quantile(q float64) int64 {
	n := r.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		c := r.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			low, high := bucketBounds(i)
			v := low + (high-low)/2
			if min := r.Min(); v < min {
				v = min
			}
			if max := r.Max(); v > max {
				v = max
			}
			return v
		}
	}
	return r.Max()
}

// Merge folds other's samples into r (other should be quiescent).
func (r *Recorder) Merge(other *Recorder) {
	for i := 0; i < numBuckets; i++ {
		if c := other.counts[i].Load(); c > 0 {
			r.counts[i].Add(c)
		}
	}
	n := other.count.Load()
	if n == 0 {
		return
	}
	r.count.Add(n)
	r.sum.Add(other.sum.Load())
	raise(&r.belowMax, other.belowMax.Load())
	raise(&r.max, other.max.Load())
}
