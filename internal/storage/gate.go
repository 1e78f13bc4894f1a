package storage

import (
	"sync"
	"time"

	"synapse/internal/timeutil"
)

// Profile models the performance envelope of one engine instance. The
// scalability experiments (Fig 13) rely on these: per-operation latency
// produces the publisher overhead baselines, and the capacity limits
// produce the saturation points where throughput stops scaling with
// workers ("saturation happens when the slowest of the publisher and
// subscriber DBs reaches its maximum throughput", §6.3).
//
// A zero Profile means an unconstrained in-memory engine, which is what
// unit tests use.
type Profile struct {
	ReadLatency  time.Duration // injected per read operation
	WriteLatency time.Duration // injected per write operation
	Concurrency  int           // max in-flight operations; 0 = unlimited
	MaxWriteRate float64       // sustained writes/sec; 0 = unlimited
	// Precise busy-waits injected latencies for sub-millisecond
	// accuracy. Only for sequential measurement paths — spinning burns
	// a core per waiter.
	Precise bool
}

// Gate enforces a Profile. Engines route every operation through Read or
// Write.
type Gate struct {
	profile Profile
	sem     chan struct{}
	bucket  *tokenBucket
}

// NewGate builds a gate for the profile.
func NewGate(p Profile) *Gate {
	g := &Gate{profile: p}
	if p.Concurrency > 0 {
		g.sem = make(chan struct{}, p.Concurrency)
	}
	if p.MaxWriteRate > 0 {
		g.bucket = newTokenBucket(p.MaxWriteRate, p.MaxWriteRate/10+1)
	}
	return g
}

// Read runs fn under the concurrency limit with read latency applied.
func (g *Gate) Read(fn func()) {
	g.acquire()
	defer g.release()
	timeutil.Wait(g.profile.ReadLatency, g.profile.Precise)
	fn()
}

// Write runs fn under the concurrency limit and write-rate cap, with
// write latency applied.
func (g *Gate) Write(fn func()) {
	if g.bucket != nil {
		g.bucket.take(1)
	}
	g.acquire()
	defer g.release()
	timeutil.Wait(g.profile.WriteLatency, g.profile.Precise)
	fn()
}

func (g *Gate) acquire() {
	if g.sem != nil {
		g.sem <- struct{}{}
	}
}

func (g *Gate) release() {
	if g.sem != nil {
		<-g.sem
	}
}

// tokenBucket is a blocking rate limiter: take(n) waits until n tokens
// are available at the configured refill rate.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

func (b *tokenBucket) take(n float64) {
	for {
		b.mu.Lock()
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
		if b.tokens >= n {
			b.tokens -= n
			b.mu.Unlock()
			return
		}
		need := (n - b.tokens) / b.rate
		b.mu.Unlock()
		time.Sleep(time.Duration(need * float64(time.Second)))
	}
}
