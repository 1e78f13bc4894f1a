package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vals by nearest rank on a
// sorted copy; 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)]
}

func rankOf(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// byWindow groups the samples' values into windows of the given length
// by due time.
func byWindow(samples []sample, window time.Duration) map[int64][]float64 {
	byWin := map[int64][]float64{}
	for _, s := range samples {
		w := s.due / int64(window)
		byWin[w] = append(byWin[w], float64(s.val))
	}
	return byWin
}

// perWindow returns the q-quantile of every window of the given length
// (by due time) that holds at least minSamples samples.
func perWindow(samples []sample, window time.Duration, q float64, minSamples int) []float64 {
	var per []float64
	for _, vals := range byWindow(samples, window) {
		if len(vals) >= minSamples {
			per = append(per, quantile(vals, q))
		}
	}
	return per
}

// sample is one timed observation of the paced phase: when the op was
// due (ns since the phase started) and what was measured (ns).
type sample struct {
	due int64
	val int64
}

// windowQuantile splits the samples into windows of the given length by
// due time, takes the q-quantile of each window that has at least
// minSamples, and returns the median of those per-window figures.
//
// A whole-phase quantile is a mixture over every hiccup of the host
// during the phase; the median of per-window quantiles ignores windows a
// neighbour or a GC cycle disturbed as long as fewer than half are, which
// is what makes the paced-phase latencies repeat on a shared 2-vCPU host.
func windowQuantile(samples []sample, window time.Duration, q float64, minSamples int) float64 {
	if len(samples) == 0 {
		return 0
	}
	per := perWindow(samples, window, q, minSamples)
	if len(per) == 0 {
		// Too few samples for any window: fall back to the whole phase.
		all := make([]float64, len(samples))
		for i, s := range samples {
			all[i] = float64(s.val)
		}
		return quantile(all, q)
	}
	return median(per)
}

// windowRatios returns, for every window that holds at least minSamples
// of both, the q-quantile of samples over the median of scale, times
// refNominalNs — the window's figure on the reference host. With no scale
// it returns the plain per-window quantiles.
func windowRatios(samples, scale []sample, window time.Duration, q float64, minSamples int) []float64 {
	if scale == nil {
		return perWindow(samples, window, q, minSamples)
	}
	vals, refs := byWindow(samples, window), byWindow(scale, window)
	var out []float64
	for w, v := range vals {
		if ref := refs[w]; len(v) >= minSamples && len(ref) >= minSamples {
			out = append(out, quantile(v, q)/median(ref)*refNominalNs)
		}
	}
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
