package core

import (
	"errors"
	"fmt"
	"testing"

	"synapse/internal/faultinject"
	"synapse/internal/model"
)

// TestBootstrapCrashResume kills the bootstrap between a chunk's apply
// and its cursor-journal write, restarts it, and proves exact
// convergence with no double-counted counters: the resumed run walks
// only the un-synced suffix, and the subscriber's ops counters end
// exactly equal to the publisher's export (a double-counted live
// message would leave them ahead, and SetOps max-merge could never
// bring them back down).
func TestBootstrapCrashResume(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name", "likes")

	ctl := pub.NewController(nil)
	for i := 0; i < 50; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("name", fmt.Sprintf("user-%d", i))
		rec.Set("likes", i)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{BootstrapChunkSize: 8})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}})

	// Crash at the THIRD cursor write: chunks 1-2 are sealed in the
	// journal, chunk 3 applied its rows but its cursor never landed.
	boom := errors.New("injected crash at cursor journal")
	sub.Faults().ArmN(FaultBootstrapCursor, 2, 1, faultinject.Fail(boom))
	if err := sub.Bootstrap("pub"); !errors.Is(err, boom) {
		t.Fatalf("bootstrap error = %v, want injected crash", err)
	}
	if got := sub.Stats().BootstrapChunks; got != 2 {
		t.Fatalf("sealed chunks after crash = %d, want 2", got)
	}

	// A live write lands while the subscriber is down; its message waits
	// in the queue and its version bump is part of the next export.
	patch := model.NewRecord("User", "u00")
	patch.Set("likes", 999)
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}

	// Restart: the journaled cursor resumes at chunk 3, so the full walk
	// is 2 sealed chunks + 5 resumed (8+8+8+8+2 of the remaining 34).
	if err := sub.Bootstrap("pub"); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.BootstrapResumes != 1 {
		t.Errorf("BootstrapResumes = %d, want 1", st.BootstrapResumes)
	}
	if st.BootstrapChunks != 7 {
		t.Errorf("BootstrapChunks = %d, want 7 (2 before the crash + 5 resumed)", st.BootstrapChunks)
	}

	// Exact convergence, including the write that raced the crash.
	if n := subMapper.Len("User"); n != 50 {
		t.Fatalf("bootstrapped %d users, want 50", n)
	}
	got, _ := subMapper.Find("User", "u00")
	if got.Int("likes") != 999 {
		t.Errorf("u00 likes = %d, want the live write's 999", got.Int("likes"))
	}

	// Counters exactly equal the publisher's: the backlog message was
	// inside the resumed run's snapshot boundary, so it must not have
	// re-incremented what SetOps already loaded.
	export, err := pub.Tracker().ExportVersions()
	if err != nil {
		t.Fatal(err)
	}
	for token, c := range export {
		subOps := sub.Store().Counters(sub.Tracker().Resolve(token)).Ops
		if subOps != c.Ops {
			t.Errorf("token %s: sub ops = %d, pub ops = %d", token, subOps, c.Ops)
		}
	}

	// And the cursor journal is gone: a future recovery starts clean.
	if _, _, found := sub.readCursor("pub", "User"); found {
		t.Error("cursor journal row survived a converged bootstrap")
	}

	// Live traffic flows afterwards.
	patch2 := model.NewRecord("User", "u07")
	patch2.Set("likes", 1234)
	if _, err := ctl.Update(patch2); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, _ = subMapper.Find("User", "u07")
	if got.Int("likes") != 1234 {
		t.Errorf("post-bootstrap update = %+v", got.Attrs)
	}
}

// TestBootstrapLiveWriteMidChunk drives a publisher write between a
// chunk's locked read and its apply: the chunk holds the OLD (version,
// attrs) pair while the live message carries the new one, and the
// version guard lets the newer one win whichever applies first.
func TestBootstrapLiveWriteMidChunk(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")

	ctl := pub.NewController(nil)
	for i := 0; i < 10; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("likes", i)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{BootstrapChunkSize: 4})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}})

	sub.Faults().ArmN(FaultBootstrapChunkHigh, 0, 1, func(string) error {
		patch := model.NewRecord("User", "u00")
		patch.Set("likes", 999)
		_, err := ctl.Update(patch)
		return err
	})
	if err := sub.Bootstrap("pub"); err != nil {
		t.Fatal(err)
	}

	got, _ := subMapper.Find("User", "u00")
	if got.Int("likes") != 999 {
		t.Errorf("u00 likes = %d, want the mid-chunk live write's 999", got.Int("likes"))
	}
	if n := subMapper.Len("User"); n != 10 {
		t.Errorf("bootstrapped %d users, want 10", n)
	}
	if err := Converged(pub, sub); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapSendsNothingToOtherSubscribers: a join publishes nothing
// through the origin's exchange, so another subscriber of that origin
// receives no delivery while it runs.
func TestBootstrapSendsNothingToOtherSubscribers(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")
	s2, _ := newDocApp(t, f, "s2", Config{})
	mustSubscribe(t, s2, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}})

	ctl := pub.NewController(nil)
	for i := 0; i < 10; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("likes", i)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	s1, _ := newDocApp(t, f, "s1", Config{BootstrapChunkSize: 4})
	mustSubscribe(t, s1, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}})

	q2 := s2.Queue()
	if q2 == nil {
		t.Fatal("s2 has no queue")
	}
	published, depth := f.Broker.Published(), q2.Depth()
	if err := s1.Bootstrap("pub"); err != nil {
		t.Fatal(err)
	}
	if chunks := s1.Stats().BootstrapChunks; chunks != 3 {
		t.Fatalf("walked %d chunks, want 3 (10 users in chunks of 4)", chunks)
	}
	if got := f.Broker.Published(); got != published {
		t.Errorf("broker published %d messages during the join, want 0", got-published)
	}
	if got := q2.Depth(); got != depth {
		t.Errorf("s2's queue went from %d to %d deliveries during s1's join", depth, got)
	}
	if err := Converged(pub, s1); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverQueueResumesFromFailedOrigin: a multi-origin recovery that
// fails on the second origin does not re-bootstrap the first on retry.
func TestRecoverQueueResumesFromFailedOrigin(t *testing.T) {
	f := NewFabric()
	pub1, _ := newDocApp(t, f, "pub1", Config{})
	mustPublish(t, pub1, userDesc(), "name")
	pub2, _ := newDocApp(t, f, "pub2", Config{})
	mustPublish(t, pub2, postDesc(), "body")

	ctl1 := pub1.NewController(nil)
	for i := 0; i < 20; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("name", "x")
		if _, err := ctl1.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	ctl2 := pub2.NewController(nil)
	for i := 0; i < 10; i++ {
		rec := model.NewRecord("Post", fmt.Sprintf("p%02d", i))
		rec.Set("body", "y")
		if _, err := ctl2.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{QueueMaxLen: 5, BootstrapChunkSize: 8})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub1", Attrs: []string{"name"}})
	mustSubscribe(t, sub, postDesc(), SubSpec{From: "pub2", Attrs: []string{"body"}})
	// The subscriber is away; pub1's traffic overflows its queue.
	for i := 0; i < 10; i++ {
		patch := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		patch.Set("name", "z")
		if _, err := ctl1.Update(patch); err != nil {
			t.Fatal(err)
		}
	}
	if !sub.Queue().Dead() {
		t.Fatal("queue not decommissioned")
	}

	// Origins recover in sorted order (pub1 then pub2). pub1's 20 users
	// walk in 3 chunks of 8; fail pub2's first chunk.
	boom := errors.New("injected failure on pub2's first chunk")
	sub.Faults().ArmN(FaultBootstrapChunkLow, 3, 1, faultinject.Fail(boom))
	if err := sub.RecoverQueue(); !errors.Is(err, boom) {
		t.Fatalf("recovery error = %v, want injected failure", err)
	}
	if n := subMapper.Len("User"); n != 20 {
		t.Fatalf("pub1 bootstrapped %d users before the failure, want 20", n)
	}

	// Retry: pub1 already converged, so only pub2 bootstraps — 3 chunks
	// for pub1 plus 2 for pub2's 10 posts, never 3 again for pub1.
	if err := sub.RecoverQueue(); err != nil {
		t.Fatal(err)
	}
	if n := subMapper.Len("Post"); n != 10 {
		t.Fatalf("pub2 bootstrapped %d posts, want 10", n)
	}
	if got := sub.Stats().BootstrapChunks; got != 5 {
		t.Errorf("BootstrapChunks = %d, want 5 (3 for pub1 + 2 for pub2, pub1 not re-walked)", got)
	}
}

// TestRecoverQueueRoundTripsPerObject: coming back over the §4.4
// decommission cliff costs the subscriber one bulk version-snapshot
// window plus one batched claim window per chunk, never a window per
// row. 2,000 recovered objects cost 0.0045 round trips each; the cap is
// an absolute 0.05, and a window per row would cost at least 1.
func TestRecoverQueueRoundTripsPerObject(t *testing.T) {
	const objects, rtCap = 2000, 0.05
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name", "likes")
	sub, subMapper := newDocApp(t, f, "sub", Config{Mode: Causal, QueueMaxLen: 64})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}})

	// The subscriber is not consuming; the creates overflow its queue.
	id := func(i int) string { return fmt.Sprintf("u%04d", i) }
	ctl := pub.NewController(nil)
	for i := 0; i < objects; i++ {
		rec := model.NewRecord("User", id(i))
		rec.Set("name", "n")
		rec.Set("likes", i)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !sub.Queue().Dead() {
		t.Fatalf("queue survived %d creates at QueueMaxLen 64", objects)
	}

	rt0 := sub.Store().RoundTrips()
	if err := sub.RecoverQueue(); err != nil {
		t.Fatal(err)
	}
	perObject := float64(sub.Store().RoundTrips()-rt0) / objects
	if n := subMapper.Len("User"); n != objects {
		t.Fatalf("recovered %d users, want %d", n, objects)
	}
	for _, i := range []int{0, objects / 2, objects - 1} {
		got, err := subMapper.Find("User", id(i))
		if err != nil || got.Int("likes") != int64(i) {
			t.Errorf("after recovery %s = %v, %v; want likes %d", id(i), got, err, i)
		}
	}
	if perObject > rtCap {
		t.Errorf("recovery cost %.4f version-store round trips per object, want <= %g", perObject, rtCap)
	}
}
