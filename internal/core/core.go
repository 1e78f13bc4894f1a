// Package core implements Synapse itself: the cross-database replication
// system of the paper. Services (Apps) publish attributes of their data
// models and subscribe to read-only views of each other's models; the
// core tracks read/write dependencies through controller scopes, runs
// the publisher algorithm of §4.2 against a sharded version store,
// ships write messages through a reliable broker, and applies them on
// subscribers with global, causal, or weak delivery semantics.
//
// The public facade for library users is the root synapse package.
package core

import (
	"errors"
	"fmt"
	"time"
)

// DeliveryMode selects update-ordering semantics (§3.2). Stronger modes
// have larger values, so modes compare with <.
type DeliveryMode int

const (
	modeUnset DeliveryMode = iota
	// Weak orders updates per object only; intermediate updates may be
	// skipped. Highest availability (tolerates message loss).
	Weak
	// Causal serializes updates to the same object, within a controller,
	// and within a user session, and makes subscriber reads of declared
	// read dependencies consistent with the publisher's.
	Causal
	// Global totally orders all updates. Rarely used in production.
	Global
)

// String implements fmt.Stringer.
func (m DeliveryMode) String() string {
	switch m {
	case Weak:
		return "weak"
	case Causal:
		return "causal"
	case Global:
		return "global"
	}
	return fmt.Sprintf("DeliveryMode(%d)", int(m))
}

// Errors surfaced by the core API.
var (
	ErrUnpublished      = errors.New("synapse: model or attribute not published by origin")
	ErrModeTooStrong    = errors.New("synapse: subscriber mode stronger than publisher mode")
	ErrNotOwner         = errors.New("synapse: only the owner may create or delete instances")
	ErrDecoratorAttr    = errors.New("synapse: decorators cannot update or republish subscribed attributes")
	ErrUnknownApp       = errors.New("synapse: unknown app")
	ErrNotSubscribed    = errors.New("synapse: app is not subscribed to this publisher")
	ErrAlreadyPublished = errors.New("synapse: attribute already published")
	// ErrDraining is returned by writes attempted while App.Drain is
	// quiescing the app for a planned shutdown.
	ErrDraining = errors.New("synapse: app is draining")
)

// WaitForever is the dependency-wait timeout for pure causal mode, the ∞
// end of the §6.5 spectrum ("weak and causal modes are achieved with the
// timeout set to 0s and ∞, respectively"). Its 0 s end is a Weak
// subscription: Config.DepTimeout zero means the default, WaitForever.
const WaitForever time.Duration = -1

// Dependency-tracker policies for Config.DepTracker (they mirror the
// deptrack package's Policy names).
const (
	// TrackerHash hashes dependency names into the fixed-cardinality key
	// space of DepCardinality — the paper's design: O(1) version-store
	// state, with false dependencies on hash collisions.
	TrackerHash = "hash"
	// TrackerDVV tracks exact per-name dots (dotted version vectors):
	// collision-free causality, version-store state proportional to the
	// working set. Messages carry name→version dots on the wire.
	TrackerDVV = "dvv"
)

// Config configures one app.
type Config struct {
	// Mode is the delivery mode this app supports as a publisher.
	// Defaults to Causal, the paper's recommended production setting.
	Mode DeliveryMode
	// VStoreShards is the number of version-store shards (default 1).
	VStoreShards int
	// DepCardinality bounds the dependency hash space (0 = unhashed).
	// Only meaningful under TrackerHash.
	DepCardinality uint64
	// DepTracker selects the dependency-tracking policy: TrackerHash
	// (the default) or TrackerDVV. Publishers and subscribers may mix
	// policies freely — wire tokens are self-describing (names vs
	// decimal keys) and every subscriber resolves both forms.
	DepTracker string
	// VStoreRTT injects a network round trip per version-store script
	// call (benchmarks; zero in tests).
	VStoreRTT time.Duration
	// VStorePerKey injects per-key version-store command cost
	// (benchmarks; zero in tests).
	VStorePerKey time.Duration
	// VStorePrecise busy-waits injected version-store latencies for
	// sub-millisecond accuracy (sequential overhead measurements only).
	VStorePrecise bool
	// QueueMaxLen bounds this app's subscriber queue; exceeding it
	// decommissions the queue (§4.4). 0 = unbounded.
	QueueMaxLen int
	// DepTimeout bounds how long a causal subscriber waits for a missing
	// dependency before processing anyway (§6.5). WaitForever (the
	// default, whenever zero) never gives up; to give up at once,
	// subscribe Weak.
	DepTimeout time.Duration
	// Workers is the default worker-pool size for StartWorkers(0).
	Workers int
	// PipelineDepth bounds how many deliveries one subscriber worker may
	// have in flight at once (default 4; 1 = a window of one). With depth
	// k, the decode, dependency probe, and version claims of messages
	// N+1..N+k proceed while message N's callback runs; a message that is
	// not ready parks and frees its slot; messages sharing a bit of the
	// worker's dispatch mask (always so for one object) are dispatched in
	// order (never concurrently), and completed messages group-commit
	// their counter increments and broker acks through the per-queue
	// flusher (one IncrOpsMulti + one AckMulti round trip per flush
	// window).
	PipelineDepth int
	// MaxDeliveryAttempts bounds failed processing attempts per
	// subscribed message: after this many failures the message is set
	// aside on the queue's dead-letter list instead of redelivered
	// (inspect with App.DeadLetters, requeue with App.ReplayDeadLetters).
	// 0 (the default) retries forever. Each redelivery waits out a
	// backoff that doubles per failure (see retryBackoff).
	MaxDeliveryAttempts int

	// QueueHighWatermark is the soft depth bound on this app's subscriber
	// queue: at or past it the queue signals PressureHigh to its
	// publishers, whose publishes defer (see admit) instead of growing
	// the queue toward the QueueMaxLen decommission cliff. The episode
	// ends once depth drains to half of it (hysteresis, so publishers
	// are not flapped at the boundary). 0 disables the depth signal.
	QueueHighWatermark int
	// ApplyTimeout arms the per-delivery stall watchdog: a subscriber
	// callback still running after the budget is abandoned and the
	// delivery counted as a failed attempt. The budget escalates —
	// doubling per prior failure, capped at 8× ApplyTimeout — so a hung
	// callback quarantines to the dead-letter list after
	// MaxDeliveryAttempts instead of wedging its worker forever.
	// 0 (the default) disables the watchdog.
	ApplyTimeout time.Duration

	// BootstrapChunkSize bounds how many publisher objects one bootstrap
	// chunk reads under a single bounded publisher lock hold (default
	// 256). Smaller chunks shrink the worst publish stall at the cost of
	// more chunks, each one cursor write and one version-store claim.
	BootstrapChunkSize int
}

func (c Config) withDefaults() Config {
	if c.Mode == modeUnset {
		c.Mode = Causal
	}
	if c.VStoreShards <= 0 {
		c.VStoreShards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 4
	}
	if c.PipelineDepth < 1 {
		c.PipelineDepth = 1
	}
	if c.DepTimeout == 0 {
		c.DepTimeout = WaitForever
	}
	if c.BootstrapChunkSize <= 0 {
		c.BootstrapChunkSize = 256
	}
	return c
}
