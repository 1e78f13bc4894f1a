package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a small shared VM whose speed
// drifts by tens of percent over seconds to minutes: a fixed stdlib
// kernel measured 570–1,590 iterations per 300 ms within one minute with
// no steal time reported. Neighbours on the same cores and memory make
// every instruction, and above all every cache miss, slower. A run lasts
// about as long as one such phase, so no estimator inside a run (best
// segment, lowest window) can tell a slow phase from a slow program:
// over ten runs of the same code the window medians of publish latency
// varied 20–70 %.
//
// reference measures the phase instead, with the only instrument that
// tracked it: a small fixed operation of the same kind as the program's
// work (copy a record's attribute map, encode it, decode it, store it
// back into a few-megabyte table), run by the load-generating goroutines
// themselves, on the same processors, between their publishes. Within a
// run the ratio of the publish latency to this operation's latency held
// to ±2 % while both moved by 60 %; between runs it spread 0.9–2.9 %
// where the raw latency spread 7–21 %. (A kernel on a thread of its own
// explained the saturation phase about as well, but not the paced one:
// the operating system schedules it elsewhere, and an arithmetic kernel
// does not feel what the program feels when a neighbour thrashes memory.)
//
// The time one reference operation takes, over its time on the builder's
// host when quiet, is the host's factor. CPU-bound timings are divided by
// the factor over the same interval, which turns "microseconds on
// whatever the host was doing" into "microseconds on the reference host".
// The operation is code of the benchmark, which no change under test can
// edit, and it calls nothing of the program.
type reference struct {
	slots []*refSlot
	ops   atomic.Int64
	// allocs and bytes per operation, calibrated once, so that the
	// reference's own garbage can be subtracted from the program's
	// allocation counts.
	allocsPerOp, bytesPerOp float64
}

// refNominalNs is one reference operation on the builder's host in its
// quiet phases. It only fixes the unit: comparisons between commits never
// see it.
const refNominalNs = 8000

// busyExponent is how strongly a closed loop that keeps the processors
// busy follows the reference operation: its cost goes as factor^0.77, not
// as the factor itself. The operation runs between publishes, on caches
// the program has just refilled with its own working set, so a neighbour
// that slows memory slows it more than it slows the program's hot loop.
// Fitted per saturation segment over 14 runs per workload, ten on a quiet
// host and four on a busy one (factors 0.85–1.9): 0.74, 0.68 and 0.74 on
// the three zero-latency workloads by least squares, and the medians of
// the quiet and the busy runs agree best (within 0.1–2.6 % for capacity
// and CPU per message, against 4–8 % at exponent 1 and 15–24 % unconverted)
// between 0.75 and 0.80. The paced phase, where the pipeline idles between
// messages and program and reference both start cold, follows the factor
// itself.
const busyExponent = 0.77

// busyFactor converts a factor into what a processor-saturating closed
// loop feels of it.
func busyFactor(factor float64) float64 { return math.Pow(factor, busyExponent) }

// refEvery is how often a closed-loop publisher runs the reference
// operation: after every refEvery-th publish (about 1.5 % of its time).
// The paced senders run it after every publish.
const refEvery = 8

// refSample is one timed reference operation.
type refSample struct {
	at time.Time
	ns int64
}

// refSlot is one table the operation works on. Maps are not safe for
// concurrent use, and a lock that goroutines wait on would change what is
// timed, so there is one slot more than processors and a goroutine that
// finds none free skips its sample.
type refSlot struct {
	mu      sync.Mutex
	table   map[string]map[string]any
	keys    []string
	i       int
	samples []refSample
}

func newReference() *reference {
	rf := &reference{}
	for i := 0; i <= runtime.GOMAXPROCS(0); i++ {
		s := &refSlot{table: map[string]map[string]any{}}
		for k := 0; k < 8000; k++ {
			id := commentID(uint32(k))
			s.keys = append(s.keys, id)
			s.table[id] = map[string]any{"post_id": "p0001", "body": "some words in a body to copy around", "post_rev": int64(k), "t": float64(k)}
		}
		rf.slots = append(rf.slots, s)
	}
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		rf.slots[0].op()
	}
	runtime.ReadMemStats(&m1)
	rf.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / n
	rf.bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	return rf
}

// op is the reference operation: about 8 µs of map copying, encoding,
// decoding and table lookups over a working set of a few megabytes.
func (s *refSlot) op() {
	s.i = (s.i*31 + 17) % len(s.keys)
	src := s.table[s.keys[s.i]]
	rec := make(map[string]any, len(src))
	for k, v := range src {
		rec[k] = v
	}
	rec["body"] = s.keys[(s.i+1)%len(s.keys)] + " edited body text"
	out, _ := json.Marshal(rec) // cannot fail: the values are strings and numbers
	var back map[string]any
	_ = json.Unmarshal(out, &back) // decodes what Marshal just produced
	s.table[s.keys[s.i]] = back
}

// sample runs one reference operation on a free slot and returns how long
// it took; ok is false when every slot was busy.
func (rf *reference) sample() (took time.Duration, ok bool) {
	for _, s := range rf.slots {
		if !s.mu.TryLock() {
			continue
		}
		start := time.Now()
		s.op()
		end := time.Now()
		s.samples = append(s.samples, refSample{at: end, ns: int64(end.Sub(start))})
		s.mu.Unlock()
		rf.ops.Add(1)
		return end.Sub(start), true
	}
	return 0, false
}

// factor is the host's slowness over [from, to]: the median duration of
// the reference operations that ended in the interval over refNominalNs.
// 1 when the interval holds fewer than ten samples.
func (rf *reference) factor(from, to time.Time) float64 {
	var vals []float64
	for _, s := range rf.slots {
		s.mu.Lock()
		for _, x := range s.samples {
			if !x.at.Before(from) && !x.at.After(to) {
				vals = append(vals, float64(x.ns))
			}
		}
		s.mu.Unlock()
	}
	if len(vals) < 10 {
		return 1
	}
	return median(vals) / refNominalNs
}
