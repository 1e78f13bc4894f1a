// Package metrics provides the small measurement toolkit used by the
// Synapse benchmarks: per-stage latency recorders, event counters,
// throughput meters, and event timelines for the execution-sample figures.
//
// Everything is safe for concurrent use unless noted otherwise.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/hdr"
)

// Counter is a monotonically increasing event counter (journal
// republishes, delivery retries, dead-letters). Unlike Meter it carries
// no clock; it is a plain concurrency-safe tally.
type Counter struct {
	n atomic.Int64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Add records n events.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc records one event.
func (c *Counter) Inc() { c.n.Add(1) }

// Count reports the events recorded so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Meter counts events over a wall-clock interval to compute throughput.
type Meter struct {
	mu    sync.Mutex
	count int64
	start time.Time
}

// NewMeter returns a meter whose clock starts now.
func NewMeter() *Meter { return &Meter{start: time.Now()} }

// Add records n events.
func (m *Meter) Add(n int64) {
	m.mu.Lock()
	m.count += n
	m.mu.Unlock()
}

// Count reports the number of events recorded so far.
func (m *Meter) Count() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Rate reports events per second since the meter started.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	elapsed := time.Since(m.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count) / elapsed
}

// RateSince reports events per second over an explicit interval, which is
// what the duration-bounded throughput benchmarks use.
func (m *Meter) RateSince(start time.Time, end time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	elapsed := end.Sub(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count) / elapsed
}

// StageStat is one stage's summary in a StageSet snapshot. Count, Mean
// and Total are exact; P95 carries the recorder's bucketing error (at
// most 1/32 of the value).
type StageStat struct {
	Count int
	Mean  time.Duration
	P95   time.Duration
	Total time.Duration
}

// StageSet times the named stages of a processing pipeline (e.g. the
// subscriber's decode / barrier / dep-wait / apply / ack stages), one
// constant-memory recorder per stage, preserving declaration order for
// display.
type StageSet struct {
	mu     sync.Mutex
	order  []string
	stages map[string]*hdr.Recorder
}

// NewStageSet declares the stages in display order. Observing an
// undeclared stage registers it on the fly.
func NewStageSet(names ...string) *StageSet {
	s := &StageSet{stages: make(map[string]*hdr.Recorder, len(names))}
	for _, n := range names {
		s.order = append(s.order, n)
		s.stages[n] = hdr.New()
	}
	return s
}

func (s *StageSet) stage(name string) *hdr.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.stages[name]
	if !ok {
		h = hdr.New()
		s.order = append(s.order, name)
		s.stages[name] = h
	}
	return h
}

// Observe records one sample for the stage.
func (s *StageSet) Observe(name string, d time.Duration) {
	s.stage(name).Record(int64(d))
}

// Stages returns the stage names in declaration order.
func (s *StageSet) Stages() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Stat summarizes one stage (zero value when the stage is unknown or
// has no samples).
func (s *StageSet) Stat(name string) StageStat {
	s.mu.Lock()
	h, ok := s.stages[name]
	s.mu.Unlock()
	if !ok {
		return StageStat{}
	}
	return StageStat{
		Count: int(h.Count()),
		Mean:  time.Duration(h.Mean()),
		P95:   time.Duration(h.Quantile(0.95)),
		Total: time.Duration(h.Sum()),
	}
}

// Snapshot summarizes every stage, keyed by stage name.
func (s *StageSet) Snapshot() map[string]StageStat {
	out := make(map[string]StageStat)
	for _, name := range s.Stages() {
		out[name] = s.Stat(name)
	}
	return out
}

// String renders one line per stage: name, count, mean, p95.
func (s *StageSet) String() string {
	var b strings.Builder
	for _, name := range s.Stages() {
		st := s.Stat(name)
		fmt.Fprintf(&b, "%-10s n=%-7d mean=%-10s p95=%s\n", name, st.Count, Fmt(st.Mean), Fmt(st.P95))
	}
	return b.String()
}

// Event is one entry on a Timeline.
type Event struct {
	At    time.Duration // offset from the timeline origin
	Actor string        // e.g. "Diaspora", "Mailer"
	Phase string        // e.g. "app", "synapse-pub", "synapse-sub"
	Label string
}

// Timeline records ordered events relative to an origin instant. It backs
// the Fig 9 execution-sample reproductions.
type Timeline struct {
	mu     sync.Mutex
	origin time.Time
	events []Event
}

// NewTimeline returns a timeline whose origin is now.
func NewTimeline() *Timeline { return &Timeline{origin: time.Now()} }

// Record appends an event stamped with the current offset from the origin.
func (t *Timeline) Record(actor, phase, label string) {
	at := time.Since(t.origin)
	t.mu.Lock()
	t.events = append(t.events, Event{At: at, Actor: actor, Phase: phase, Label: label})
	t.mu.Unlock()
}

// Events returns a copy of all events sorted by time.
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the timeline as one line per event, suitable for the
// Fig 9-style textual timelines printed by the bench harness.
func (t *Timeline) String() string {
	var b strings.Builder
	for _, e := range t.Events() {
		fmt.Fprintf(&b, "%8.2fms  %-18s %-12s %s\n",
			float64(e.At.Microseconds())/1000.0, e.Actor, e.Phase, e.Label)
	}
	return b.String()
}

// Fmt renders a duration in milliseconds with two decimals, the unit the
// paper's tables use.
func Fmt(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000.0)
}
