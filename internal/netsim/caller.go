package netsim

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the fast-fail returned while a Caller's circuit
// breaker is open: the endpoint has failed repeatedly and calls are
// rejected without touching the network until the cooldown elapses.
var ErrBreakerOpen = errors.New("netsim: circuit breaker open")

// CallerConfig tunes one endpoint's client-side resilience policy.
type CallerConfig struct {
	// Attempts is the number of tries per Do (including the first).
	Attempts int
	// Deadline bounds one Do end to end — no retry is started after
	// the deadline has passed, so a Do can never block the app for
	// longer than roughly Deadline plus one attempt.
	Deadline time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential backoff
	// slept between attempts.
	BackoffBase, BackoffMax time.Duration
	// BreakerThreshold consecutive failed Dos open the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe.
	BreakerCooldown time.Duration
	// Seed drives the backoff jitter (deterministic per endpoint).
	Seed int64
}

func (c CallerConfig) withDefaults() CallerConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Deadline <= 0 {
		c.Deadline = 50 * time.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 16 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 50 * time.Millisecond
	}
	return c
}

// Caller is the client-side resilience wrapper for one remote
// endpoint: deadline-bounded attempts with jittered exponential
// backoff, and a circuit breaker that fast-fails while the endpoint is
// known bad so the app degrades (journal-and-defer) instead of
// blocking. closed → open after BreakerThreshold consecutive Do
// failures; open → half-open after the cooldown (one probe Do is
// admitted); a successful probe closes it, a failed one re-opens it.
//
// A Do that finds the breaker closed and succeeds reads the clock once
// and takes no lock: the breaker state it checks is one atomic, and the
// lock is taken only when the failure streak changes.
type Caller struct {
	cfg   CallerConfig
	epoch time.Time // the monotonic origin openUntil counts from

	openUntil atomic.Int64 // breaker open before epoch + this many ns
	failures  atomic.Int32 // consecutive failed Dos; written under mu
	fastFails atomic.Int64

	mu    sync.Mutex
	rng   *rand.Rand
	trips int64
}

// NewCaller builds a Caller with the given policy (zero fields get
// defaults).
func NewCaller(cfg CallerConfig) *Caller {
	cfg = cfg.withDefaults()
	return &Caller{cfg: cfg, epoch: time.Now(), rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Do runs fn under the resilience policy: up to Attempts tries within
// Deadline, jittered backoff between tries, fast-fail with
// ErrBreakerOpen while the breaker is open. Returns nil on the first
// success, the last attempt's error otherwise.
func (c *Caller) Do(fn func() error) error {
	now := time.Since(c.epoch)
	if int64(now) < c.openUntil.Load() {
		c.fastFails.Add(1)
		return ErrBreakerOpen
	}

	deadline := now + c.cfg.Deadline
	var err error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff(attempt))
			if time.Since(c.epoch) > deadline {
				break
			}
		}
		if err = fn(); err == nil {
			if c.failures.Load() != 0 {
				c.mu.Lock()
				c.failures.Store(0)
				c.mu.Unlock()
			}
			return nil
		}
	}

	c.mu.Lock()
	if n := c.failures.Add(1); int(n) >= c.cfg.BreakerThreshold {
		// Open (or re-open after a failed half-open probe). The
		// failure count stays at the threshold so one more failed
		// probe re-opens immediately.
		c.openUntil.Store(int64(time.Since(c.epoch) + c.cfg.BreakerCooldown))
		c.failures.Store(int32(c.cfg.BreakerThreshold))
		c.trips++
	}
	c.mu.Unlock()
	return err
}

// backoff draws the jittered exponential delay before the given
// (1-based) retry attempt: uniform in (0, min(base·2^(n-1), max)].
func (c *Caller) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d))) + 1
	c.mu.Unlock()
	return j
}

// Open reports whether the breaker is currently rejecting calls.
func (c *Caller) Open() bool {
	return int64(time.Since(c.epoch)) < c.openUntil.Load()
}

// Trips returns how many times the breaker has opened.
func (c *Caller) Trips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trips
}

// FastFails returns how many Dos were rejected without an attempt.
func (c *Caller) FastFails() int64 { return c.fastFails.Load() }

// Reset force-closes the breaker and clears the failure streak (used
// when the caller knows the endpoint recovered, e.g. after an explicit
// restart in tests).
func (c *Caller) Reset() {
	c.mu.Lock()
	c.failures.Store(0)
	c.openUntil.Store(0)
	c.mu.Unlock()
}
