// Package jobs provides the background-job runner (the Sidekiq stand-in
// of §4.2): applications are stateless outside controllers, and Synapse
// tracks dependencies "within the scope of individual controllers
// (serving HTTP requests) and the scope of individual background jobs".
// Each job here runs inside its own controller scope with no user
// session, so its writes are dependency-tracked exactly like a request
// handler's.
package jobs

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/core"
)

// Job is one unit of background work. The controller is the job's
// dependency-tracking scope.
type Job func(ctl *core.Controller) error

// ErrStopped is returned by Enqueue after the runner stopped.
var ErrStopped = errors.New("jobs: runner stopped")

// Runner executes queued jobs on a fixed worker pool with bounded
// retries.
type Runner struct {
	app        *core.App
	queue      chan Job
	maxRetries int
	backoff    time.Duration

	// An Enqueue holds mu's read lock until its send is over, so Stop,
	// once stopping has woken every Enqueue blocked on a full buffer,
	// takes the write lock before it closes the queue.
	mu       sync.RWMutex
	stopped  bool
	stopping chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Counters for tests and monitoring.
	Completed atomic.Int64
	Failed    atomic.Int64 // jobs that exhausted their retries
	Retries   atomic.Int64
}

// Options tunes a Runner.
type Options struct {
	// Workers is the pool size (default 1).
	Workers int
	// QueueDepth bounds the pending-job buffer (default 1024).
	QueueDepth int
	// MaxRetries is how many times a failing job is retried before
	// being dropped (default 3).
	MaxRetries int
	// Backoff is the delay between retries (default 10ms).
	Backoff time.Duration
}

// NewRunner starts a job runner for the app.
func NewRunner(app *core.App, opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	r := &Runner{
		app:        app,
		queue:      make(chan Job, opts.QueueDepth),
		stopping:   make(chan struct{}),
		maxRetries: opts.MaxRetries,
		backoff:    opts.Backoff,
	}
	for i := 0; i < opts.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Enqueue schedules a job. It blocks while the buffer is full and
// returns ErrStopped after Stop, or when Stop is called while it blocks;
// a job it returned nil for runs.
func (r *Runner) Enqueue(j Job) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.stopped {
		return ErrStopped
	}
	select {
	case r.queue <- j:
		return nil
	case <-r.stopping:
		return ErrStopped
	}
}

// Stop drains the queue and waits for in-flight jobs to finish.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopping)
		r.mu.Lock()
		r.stopped = true
		close(r.queue)
		r.mu.Unlock()
	})
	r.wg.Wait()
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.run(j)
	}
}

func (r *Runner) run(j Job) {
	for attempt := 0; ; attempt++ {
		// A fresh controller per attempt: each retry is its own
		// dependency-tracking scope, like a re-enqueued Sidekiq job.
		ctl := r.app.NewController(nil)
		err := j(ctl)
		ctl.Close()
		if err == nil {
			r.Completed.Add(1)
			return
		}
		if attempt >= r.maxRetries {
			r.Failed.Add(1)
			return
		}
		r.Retries.Add(1)
		time.Sleep(r.backoff)
	}
}
