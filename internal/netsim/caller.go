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

// The one client-side resilience policy every Caller runs.
const (
	// callAttempts is the number of tries per Do (including the first).
	callAttempts = 2
	// callDeadline bounds one Do end to end: no retry is started after
	// it has passed, so a Do never blocks its app for much longer than
	// the deadline plus one attempt.
	callDeadline = 4 * time.Millisecond
	// backoffBase bounds the jittered backoff slept before the retry.
	backoffBase = 200 * time.Microsecond
	// breakerThreshold consecutive failed Dos open the breaker.
	breakerThreshold = 3
	// breakerCooldown is how long the breaker stays open before it
	// admits a half-open probe.
	breakerCooldown = 5 * time.Millisecond
)

// Caller is the client-side resilience wrapper for one remote
// endpoint: deadline-bounded attempts with a jittered backoff before
// the retry, and a circuit breaker that fast-fails while the endpoint is
// known bad so the app degrades (journal-and-defer) instead of
// blocking. closed → open after breakerThreshold consecutive Do
// failures; open → half-open after the cooldown, where the first Do
// claims the one probe and every other fast-fails until it lands; a
// successful probe closes the breaker, a failed one re-opens it.
//
// A Do that finds the breaker closed and succeeds reads the clock once
// and takes no lock: the breaker state it checks is one atomic, and the
// lock is taken only when the failure streak changes.
type Caller struct {
	epoch time.Time // the monotonic origin openUntil counts from
	// deadline and cooldown are callDeadline and breakerCooldown; the
	// package's tests lengthen them where a loaded host could outrun one.
	deadline, cooldown time.Duration

	// openUntil is 0 while the breaker is closed; otherwise calls are
	// rejected before epoch + this many ns, and the first Do after it
	// claims the half-open probe by moving it one cooldown on.
	openUntil atomic.Int64
	failures  atomic.Int32 // consecutive failed Dos; written under mu

	mu  sync.Mutex
	rng *rand.Rand
}

// NewCaller builds a Caller whose backoff jitter is drawn from seed
// (deterministic per endpoint).
func NewCaller(seed int64) *Caller {
	return &Caller{
		epoch:    time.Now(),
		deadline: callDeadline,
		cooldown: breakerCooldown,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Cooldown is how long an opened breaker rejects calls before it
// admits a probe: the soonest a failed endpoint is tried again.
func (c *Caller) Cooldown() time.Duration { return c.cooldown }

// Do runs fn under the resilience policy: up to callAttempts tries
// within callDeadline, a jittered backoff before the retry, fast-fail with
// ErrBreakerOpen while the breaker is open or another Do holds the
// half-open probe. Returns nil on the first success, the last
// attempt's error otherwise.
func (c *Caller) Do(fn func() error) error {
	now := time.Since(c.epoch)
	if until := c.openUntil.Load(); until != 0 {
		if int64(now) < until || !c.openUntil.CompareAndSwap(until, int64(now+c.cooldown)) {
			return ErrBreakerOpen
		}
	}

	deadline := now + c.deadline
	var err error
	for attempt := 0; attempt < callAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff())
			if time.Since(c.epoch) > deadline {
				break
			}
		}
		if err = fn(); err == nil {
			if c.failures.Load() != 0 || c.openUntil.Load() != 0 {
				c.mu.Lock()
				c.failures.Store(0)
				c.openUntil.Store(0)
				c.mu.Unlock()
			}
			return nil
		}
	}

	c.mu.Lock()
	if c.failures.Add(1) >= breakerThreshold {
		// Open (or re-open after a failed half-open probe). The
		// failure count stays at the threshold so one more failed
		// probe re-opens immediately.
		c.openUntil.Store(int64(time.Since(c.epoch) + c.cooldown))
		c.failures.Store(breakerThreshold)
	}
	c.mu.Unlock()
	return err
}

// backoff draws the jittered delay before the retry: uniform in
// (0, backoffBase].
func (c *Caller) backoff() time.Duration {
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(backoffBase))) + 1
	c.mu.Unlock()
	return j
}
