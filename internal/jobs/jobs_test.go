package jobs

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/wire"
)

func newApp(t *testing.T, f *core.Fabric, name string) (*core.App, *documentorm.Mapper) {
	t.Helper()
	m := documentorm.New(docdb.New(docdb.MongoDB))
	a, err := core.NewApp(f, name, m, core.Config{Mode: core.Causal})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func itemDesc() *model.Descriptor {
	return model.NewDescriptor("Item", model.Field{Name: "v", Type: model.Int})
}

func TestJobsPublishThroughControllers(t *testing.T) {
	f := core.NewFabric()
	pub, _ := newApp(t, f, "pub")
	if err := pub.Publish(itemDesc(), core.PubSpec{Attrs: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	sub, subMapper := newApp(t, f, "sub")
	if err := sub.Subscribe(itemDesc(), core.SubSpec{From: "pub", Attrs: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	sub.StartWorkers(2)
	defer sub.StopWorkers()

	r := NewRunner(pub, Options{Workers: 4})
	const jobs = 30
	for i := 0; i < jobs; i++ {
		i := i
		if err := r.Enqueue(func(ctl *core.Controller) error {
			rec := model.NewRecord("Item", fmt.Sprintf("it%d", i))
			rec.Set("v", i)
			_, err := ctl.Create(rec)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.Stop()
	if got := r.Completed.Load(); got != jobs {
		t.Fatalf("completed %d jobs", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if subMapper.Len("Item") == jobs {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replicated %d of %d job writes", subMapper.Len("Item"), jobs)
}

func TestJobRetriesThenSucceeds(t *testing.T) {
	f := core.NewFabric()
	app, _ := newApp(t, f, "app")
	if err := app.Publish(itemDesc(), core.PubSpec{Attrs: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(app, Options{Workers: 1, MaxRetries: 5, Backoff: time.Millisecond})
	var attempts atomic.Int64
	if err := r.Enqueue(func(ctl *core.Controller) error {
		if attempts.Add(1) < 3 {
			return errors.New("flaky dependency")
		}
		rec := model.NewRecord("Item", "it1")
		rec.Set("v", 1)
		_, err := ctl.Create(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if attempts.Load() != 3 {
		t.Errorf("attempts = %d", attempts.Load())
	}
	if r.Completed.Load() != 1 || r.Failed.Load() != 0 || r.Retries.Load() != 2 {
		t.Errorf("counters = completed=%d failed=%d retries=%d",
			r.Completed.Load(), r.Failed.Load(), r.Retries.Load())
	}
}

func TestJobExhaustsRetries(t *testing.T) {
	f := core.NewFabric()
	app, _ := newApp(t, f, "app")
	r := NewRunner(app, Options{Workers: 1, MaxRetries: 2, Backoff: time.Millisecond})
	var attempts atomic.Int64
	_ = r.Enqueue(func(*core.Controller) error {
		attempts.Add(1)
		return errors.New("permanently broken")
	})
	r.Stop()
	if attempts.Load() != 3 { // initial + 2 retries
		t.Errorf("attempts = %d", attempts.Load())
	}
	if r.Failed.Load() != 1 || r.Completed.Load() != 0 {
		t.Errorf("counters = %d/%d", r.Failed.Load(), r.Completed.Load())
	}
}

func TestEnqueueAfterStop(t *testing.T) {
	f := core.NewFabric()
	app, _ := newApp(t, f, "app")
	r := NewRunner(app, Options{})
	r.Stop()
	r.Stop() // idempotent
	if err := r.Enqueue(func(*core.Controller) error { return nil }); !errors.Is(err, ErrStopped) {
		t.Errorf("Enqueue after stop = %v", err)
	}
}

// TestStopWhileEnqueueBlocks: an Enqueue blocked on a full buffer when
// Stop closes the runner returns ErrStopped (or nil, and its job runs)
// instead of sending on the closed queue, and Stop still runs every job
// it accepted.
func TestStopWhileEnqueueBlocks(t *testing.T) {
	f := core.NewFabric()
	app, _ := newApp(t, f, "app")
	r := NewRunner(app, Options{Workers: 1, QueueDepth: 1})
	var ran atomic.Int64
	held, running := make(chan struct{}), make(chan struct{})
	job := func(*core.Controller) error { ran.Add(1); return nil }
	if err := r.Enqueue(func(*core.Controller) error {
		close(running)
		<-held
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := r.Enqueue(job); err != nil { // fills the buffer
		t.Fatal(err)
	}
	third := make(chan error, 1)
	go func() { third <- r.Enqueue(job) }()
	time.Sleep(20 * time.Millisecond) // the third Enqueue blocks on the full buffer

	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	time.Sleep(20 * time.Millisecond) // Stop runs while the third still blocks
	close(held)

	var err error
	select {
	case err = <-third:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked Enqueue never returned")
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned")
	}
	accepted := int64(2)
	switch {
	case err == nil:
		accepted++
	case !errors.Is(err, ErrStopped):
		t.Fatalf("blocked Enqueue = %v, want nil or ErrStopped", err)
	}
	if got := ran.Load(); got != accepted {
		t.Errorf("ran %d jobs, want the %d accepted", got, accepted)
	}
}

func TestJobWritesAreDependencyTracked(t *testing.T) {
	// Two writes in one job chain causally: the second message depends
	// on the first (controller chaining, §4.2).
	f := core.NewFabric()
	pub, _ := newApp(t, f, "pub")
	if err := pub.Publish(itemDesc(), core.PubSpec{Attrs: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	q, _ := f.Broker.DeclareQueue("tap", 0)
	if err := f.Broker.Bind("tap", "pub"); err != nil {
		t.Fatal(err)
	}

	r := NewRunner(pub, Options{Workers: 1})
	if err := r.Enqueue(func(ctl *core.Controller) error {
		for i := 0; i < 2; i++ {
			rec := model.NewRecord("Item", fmt.Sprintf("chain%d", i))
			rec.Set("v", i)
			if _, err := ctl.Create(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.Stop()

	d1, ok1, _ := q.TryGet()
	d2, ok2, _ := q.TryGet()
	if !ok1 || !ok2 {
		t.Fatal("expected two messages")
	}
	m1, err := wire.Unmarshal(d1.Payload)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := wire.Unmarshal(d2.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// The second message carries the first write's object as a chained
	// read dependency (controller chaining within the job scope).
	firstObj := m1.Operations[0].Object
	chained := false
	for _, d := range m2.Deps {
		chained = chained || d.Token == firstObj
	}
	if !chained {
		t.Errorf("second job message lacks the chained dependency %v: %v", firstObj, m2.Deps)
	}
}
