package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"synapse/internal/wire"
)

// watch adds a sink to a's transition stream (see App.moved). Call it
// before a runs: the sink list is read without a lock.
func watch(a *App, sink func(transition)) { a.sinks = append(a.sinks, sink) }

// watchJobs is watch for a's job moves alone.
func watchJobs(a *App, fn func(j *job, from, to jobState)) {
	watch(a, func(ev transition) {
		if ev.job != nil {
			fn(ev.job, jobState(ev.from), jobState(ev.to))
		}
	})
}

// watchPubs is watch for a's publication moves alone.
func watchPubs(a *App, fn func(p *publication, from, to pubState)) {
	watch(a, func(ev transition) {
		if ev.pub != nil {
			fn(ev.pub, pubState(ev.from), pubState(ev.to))
		}
	})
}

// versionRecord is one entry of a history: the version of an object key
// that origin's message seq carried. In an apply history, at is the
// apply's place in claim order and chunk marks a bootstrap chunk row.
type versionRecord struct {
	origin  string
	seq     uint64
	key     wire.Token // the object's token
	version uint64
	chunk   bool
	at      uint64
}

func (r versionRecord) String() string {
	if r.chunk {
		return fmt.Sprintf("version %d by a chunk row", r.version)
	}
	return fmt.Sprintf("version %d by %s seq=%d", r.version, r.origin, r.seq)
}

// recorder is a history sink, unsampled: every guarded operation a job
// applied, recorded at claimed -> applied in the order the jobs were
// claimed (under their apply locks), and every publication's object
// versions at committed, in commit order (under its plan's locks). It
// sees no chunk row (chunk rows move no job), and a history is one
// generation: a flush restarts every counter.
type recorder struct {
	mu        sync.Mutex
	claims    uint64
	claimedAt map[*job]uint64
	applied   []versionRecord
	published []versionRecord
}

// recorders holds each app's recorder, for mustSettle to check.
var recorders sync.Map // *App -> *recorder

// record attaches a recorder to a, before a runs, for the rest of t.
func record(t *testing.T, a *App) {
	r := &recorder{claimedAt: make(map[*job]uint64)}
	watch(a, r.sink)
	recorders.Store(a, r)
	t.Cleanup(func() { recorders.Delete(a) })
}

// checkRecorded runs checkVersionsRise on both histories of each app
// that has a recorder.
func checkRecorded(apps ...*App) error {
	for _, a := range apps {
		if r, ok := recorders.Load(a); ok {
			applied, published := r.(*recorder).histories()
			if err := errors.Join(checkVersionsRise(applied), checkVersionsRise(published)); err != nil {
				return fmt.Errorf("%s's history: %w", a.name, err)
			}
		}
	}
	return nil
}

func (r *recorder) sink(ev transition) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case ev.job != nil && jobState(ev.to) == stateClaimed:
		r.claims++
		r.claimedAt[ev.job] = r.claims
	case ev.job != nil && jobState(ev.to) == stateApplied:
		j, msg := ev.job, ev.job.msg
		for i := range min(len(msg.Operations), 64) {
			op := &msg.Operations[i]
			if v, guarded := msg.ObjectVersion(op); guarded && j.applied&(1<<i) != 0 {
				r.applied = append(r.applied, versionRecord{origin: msg.App, seq: msg.Seq, key: op.Object, version: v, at: r.claimedAt[j]})
			}
		}
	case ev.pub != nil && pubState(ev.to) == pubCommitted:
		p := ev.pub
		for i := range p.msg.Operations { // none on a replay: it is rebuilt after
			op := &p.msg.Operations[i]
			for _, d := range p.msg.Deps {
				if d.Token == op.Object {
					r.published = append(r.published, versionRecord{origin: p.msg.App, seq: p.msg.Seq, key: op.Object, version: d.Version + 1})
				}
			}
		}
	}
}

// histories are the applies recorded so far, in claim order, and the
// publications, in commit order.
func (r *recorder) histories() (applied, published []versionRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied = slices.Clone(r.applied)
	slices.SortStableFunc(applied, func(x, y versionRecord) int { return cmp.Compare(x.at, y.at) })
	return applied, slices.Clone(r.published)
}

// checkVersionsRise is the per-object rule of dotted version vectors on
// one history, taken in order: a key's versions never fall. A live
// message's rises strictly, since a version is committed once and
// claimed once; a chunk row may write the version already stored.
// Origins that share a hashed key share its versions.
func checkVersionsRise(h []versionRecord) error {
	last := make(map[wire.Token]versionRecord)
	for _, r := range h {
		if prev, ok := last[r.key]; ok && (r.version < prev.version || r.version == prev.version && !r.chunk) {
			return fmt.Errorf("key %s: %v after %v", r.key, r, prev)
		}
		last[r.key] = r
	}
	return nil
}

func TestCheckVersionsRise(t *testing.T) {
	live := func(origin string, seq, key, v uint64) versionRecord {
		return versionRecord{origin: origin, seq: seq, key: wire.Token{Key: key}, version: v}
	}
	chunk := func(key, v uint64) versionRecord {
		return versionRecord{key: wire.Token{Key: key}, version: v, chunk: true}
	}
	for _, tc := range []struct {
		name    string
		history []versionRecord
		fails   string
	}{
		{"rising", []versionRecord{live("pub", 1, 7, 1), live("pub", 2, 9, 1), live("pub", 3, 7, 2)}, ""},
		{"a live version falls", []versionRecord{live("pub", 1, 7, 1), live("pub", 2, 7, 3), live("pub", 3, 7, 2)},
			"key 7: version 2 by pub seq=3 after version 3 by pub seq=2"},
		{"a live version applied twice", []versionRecord{live("pub", 1, 7, 1), live("pub", 1, 7, 1)},
			"key 7: version 1 by pub seq=1 after version 1 by pub seq=1"},
		{"a chunk row re-applies the stored version", []versionRecord{live("pub", 4, 7, 2), chunk(7, 2), live("pub", 5, 7, 3)}, ""},
		{"a chunk row falls", []versionRecord{live("pub", 4, 7, 2), chunk(7, 1)},
			"key 7: version 1 by a chunk row after version 2 by pub seq=4"},
		{"two origins share a hashed key", []versionRecord{live("a", 1, 7, 1), live("b", 1, 7, 2), live("a", 2, 7, 3)}, ""},
		{"two origins share a hashed key, and one falls", []versionRecord{live("a", 1, 7, 2), live("b", 1, 7, 1)},
			"key 7: version 1 by b seq=1 after version 2 by a seq=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkVersionsRise(tc.history)
			if got := fmt.Sprint(err); tc.fails == "" && err != nil || tc.fails != "" && got != tc.fails {
				t.Fatalf("checkVersionsRise = %v, want %q", err, cmp.Or(tc.fails, "<nil>"))
			}
		})
	}
}
