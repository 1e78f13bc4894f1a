package core

import (
	"strings"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/wire"
)

// --- DVV tracker end-to-end -------------------------------------------

func TestDVVEndToEndCausal(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: TrackerDVV})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 3)

	// DVV messages carry exact name→version dots, no hashed deps.
	for i, m := range got {
		if len(m.Deps) == 0 {
			t.Fatalf("msg %d has no dots: %+v", i, m)
		}
		for _, d := range m.Deps {
			if d.Name == "" {
				t.Errorf("msg %d carries hashed deps under DVV: %v", i, m.Deps)
			}
		}
		if _, ok := depVersions(m)[wire.Token{Name: "pub/users/id/u1"}]; !ok {
			t.Errorf("msg %d dots = %v, want pub/users/id/u1", i, m.Deps)
		}
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{DepTracker: TrackerDVV})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)
	for _, m := range got {
		if err := sub.ProcessMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := subMapper.Find("User", "u1")
	if err != nil || rec.String("name") != "v2" {
		t.Fatalf("DVV subscriber state = %+v, %v", rec, err)
	}
}

// TestMixedTrackerPoliciesInteroperate: wire tokens are self-describing,
// so every (publisher policy, subscriber policy) pair must deliver.
func TestMixedTrackerPoliciesInteroperate(t *testing.T) {
	policies := []string{TrackerHash, TrackerDVV}
	for _, pubPolicy := range policies {
		for _, subPolicy := range policies {
			t.Run(pubPolicy+"_to_"+subPolicy, func(t *testing.T) {
				f := NewFabric()
				pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: pubPolicy})
				mustPublish(t, pub, userDesc(), "name")
				got := publishUpdates(t, pub, 4)

				sub, subMapper := newDocApp(t, f, "sub", Config{DepTracker: subPolicy})
				mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
				drainQueue(t, sub)
				for _, m := range got {
					if err := sub.ProcessMessage(m); err != nil {
						t.Fatal(err)
					}
				}
				rec, err := subMapper.Find("User", "u1")
				if err != nil || rec.String("name") != "v3" {
					t.Fatalf("%s→%s state = %+v, %v", pubPolicy, subPolicy, rec, err)
				}
			})
		}
	}
}

// --- timeout errors name the blocking dependency ----------------------

func TestDepTimeoutNamesBlockingDot(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: TrackerDVV})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 3)

	sub, _ := newDocApp(t, f, "sub", Config{DepTracker: TrackerDVV, DepTimeout: 30 * time.Millisecond})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	// Message 1 is lost; message 2's wait gives up after DepTimeout.
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if err := sub.ProcessMessage(got[2]); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.DepTimeouts == 0 {
		t.Fatal("no dependency timeout recorded")
	}
	if !strings.Contains(st.LastDepTimeout, `dot "pub/users/id/u1"`) {
		t.Errorf("LastDepTimeout does not name the blocking dot: %q", st.LastDepTimeout)
	}
	if !strings.Contains(st.LastDepTimeout, "dvv tracker") {
		t.Errorf("LastDepTimeout does not name the tracker: %q", st.LastDepTimeout)
	}
}

func TestDepTimeoutNamesHashedKey(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 3)

	sub, _ := newDocApp(t, f, "sub", Config{DepTimeout: 30 * time.Millisecond})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if err := sub.ProcessMessage(got[2]); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.DepTimeouts == 0 {
		t.Fatal("no dependency timeout recorded")
	}
	if !strings.Contains(st.LastDepTimeout, "hashed key") ||
		!strings.Contains(st.LastDepTimeout, "hash tracker") {
		t.Errorf("LastDepTimeout = %q, want hashed key + hash tracker", st.LastDepTimeout)
	}
}

// --- false-dependency estimate ----------------------------------------

// publishTwoUsers creates two distinct objects from independent
// controllers (no session, so no cross-object session dependency).
func publishTwoUsers(t *testing.T, pub *App) []*wire.Message {
	t.Helper()
	msgs := tap(t, pub.fabric, pub.Name())
	for _, id := range []string{"u1", "u2"} {
		ctl := pub.NewController(nil)
		rec := model.NewRecord("User", id)
		rec.Set("name", "hello-"+id)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	return msgs()
}

func TestFalseDependencyEstimateUnderHashCollisions(t *testing.T) {
	// Cardinality 1 folds every name onto key 0: u2's create is forced
	// to wait for u1's — a pure false dependency.
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepCardinality: 1})
	mustPublish(t, pub, userDesc(), "name")
	got := publishTwoUsers(t, pub)

	sub, _ := newDocApp(t, f, "sub", Config{DepCardinality: 1})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	// Deliver u2's create first; it blocks on key 0 until u1's arrives.
	done := make(chan error, 1)
	go func() { done <- sub.ProcessMessage(got[1]) }()
	time.Sleep(20 * time.Millisecond)
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.DepWaitsBlocked != 1 {
		t.Errorf("DepWaitsBlocked = %d, want 1", st.DepWaitsBlocked)
	}
	if st.FalseDepsSuspected != 1 {
		t.Errorf("FalseDepsSuspected = %d, want 1", st.FalseDepsSuspected)
	}
	if st.DepWaitBlockedMax <= 0 {
		t.Errorf("DepWaitBlockedMax = %v, want > 0", st.DepWaitBlockedMax)
	}
	if n := depEvidence(sub); n != 1 {
		t.Errorf("last-writer evidence for %d keys, want the one key", n)
	}
}

// depEvidence counts the keys the false-dependency estimate keeps a last
// writer for.
func depEvidence(a *App) (n int) {
	for i := range a.depWriters {
		n += len(a.depWriters[i].m)
	}
	return n
}

// Unhashed keys, like DVV dots, cannot collide: the subscriber keeps no
// last-writer evidence for them, whatever it applies.
func TestNoDepEvidenceWithoutCollisions(t *testing.T) {
	for _, cfg := range []Config{{}, {DepTracker: TrackerDVV}} {
		f := NewFabric()
		pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: cfg.DepTracker})
		mustPublish(t, pub, userDesc(), "name")
		got := publishTwoUsers(t, pub)
		sub, _ := newDocApp(t, f, "sub", cfg)
		mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
		drainQueue(t, sub)
		for _, m := range got {
			if err := sub.ProcessMessage(m); err != nil {
				t.Fatal(err)
			}
		}
		if n, st := depEvidence(sub), sub.Stats(); n != 0 || st.FalseDepsSuspected != 0 {
			t.Errorf("%+v: evidence for %d keys, %d false deps; want 0, 0", cfg, n, st.FalseDepsSuspected)
		}
	}
}

func TestDVVHasNoFalseDependencies(t *testing.T) {
	// Same out-of-order delivery as the hash test above, but dots are
	// per-name: u2's create depends on nothing and applies immediately.
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: TrackerDVV})
	mustPublish(t, pub, userDesc(), "name")
	got := publishTwoUsers(t, pub)

	sub, subMapper := newDocApp(t, f, "sub", Config{DepTracker: TrackerDVV})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	if err := sub.ProcessMessage(got[1]); err != nil {
		t.Fatal(err)
	}
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.DepWaitsBlocked != 0 {
		t.Errorf("DepWaitsBlocked = %d, want 0 (causally unrelated)", st.DepWaitsBlocked)
	}
	if st.FalseDepsSuspected != 0 {
		t.Errorf("FalseDepsSuspected = %d, want 0", st.FalseDepsSuspected)
	}
	for _, id := range []string{"u1", "u2"} {
		if rec, err := subMapper.Find("User", id); err != nil || rec.String("name") != "hello-"+id {
			t.Fatalf("record %s = %+v, %v", id, rec, err)
		}
	}
}

// TestTrueDependencyNotCountedFalse: a blocked wait released by a write
// to the SAME object is a real dependency, not a false one.
func TestTrueDependencyNotCountedFalse(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: TrackerDVV})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 2)

	sub, _ := newDocApp(t, f, "sub", Config{DepTracker: TrackerDVV})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	done := make(chan error, 1)
	go func() { done <- sub.ProcessMessage(got[1]) }()
	time.Sleep(20 * time.Millisecond)
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.DepWaitsBlocked != 1 {
		t.Errorf("DepWaitsBlocked = %d, want 1", st.DepWaitsBlocked)
	}
	if st.FalseDepsSuspected != 0 {
		t.Errorf("FalseDepsSuspected = %d, want 0 (same object)", st.FalseDepsSuspected)
	}
}

// TestUnknownTrackerPolicyRejected: config typos fail fast at NewApp.
func TestUnknownTrackerPolicyRejected(t *testing.T) {
	f := NewFabric()
	if _, err := NewApp(f, "bad", nil, Config{DepTracker: "vector-of-doom"}); err == nil {
		t.Fatal("unknown tracker policy accepted")
	}
}
