package core

import (
	"sync"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// TestFig8MessageTrace drives the exact controller sequence of Fig 8
// through real controllers and checks the dependencies of every
// generated message against the values printed in the paper.
func TestFig8MessageTrace(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newDocApp(t, f, "app", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body", "author")
	mustPublish(t, pub, commentDesc(), "body", "post", "author")
	msgs := tap(t, f, "app")

	// Seed the two users (not part of the traced sequence).
	for _, id := range []string{"1", "2"} {
		rec := model.NewRecord("User", id)
		rec.Set("name", "user"+id)
		if _, err := pubMapper.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	key := func(name string) wire.Token {
		return wire.Token{Key: uint64(pub.Store().KeyFor(name))}
	}
	u1, u2 := key("app/users/id/1"), key("app/users/id/2")
	p1 := key("app/posts/id/1")
	c1, c2 := key("app/comments/id/1"), key("app/comments/id/2")

	// W1: user 1 creates the post.
	s1 := pub.NewSession("User", "1")
	ctl := pub.NewController(s1)
	post := model.NewRecord("Post", "1")
	post.Set("author", "1")
	post.Set("body", "helo")
	if _, err := ctl.Create(post); err != nil {
		t.Fatal(err)
	}

	// W2: user 2 reads the post and comments on it.
	s2 := pub.NewSession("User", "2")
	ctl2 := pub.NewController(s2)
	if _, err := ctl2.Find("Post", "1"); err != nil {
		t.Fatal(err)
	}
	com := model.NewRecord("Comment", "1")
	com.Set("post", "1")
	com.Set("author", "2")
	com.Set("body", "you have a typo")
	if _, err := ctl2.Create(com); err != nil {
		t.Fatal(err)
	}

	// W3: user 1 reads the post and comments back.
	ctl3 := pub.NewController(s1)
	if _, err := ctl3.Find("Post", "1"); err != nil {
		t.Fatal(err)
	}
	com2 := model.NewRecord("Comment", "2")
	com2.Set("post", "1")
	com2.Set("author", "1")
	com2.Set("body", "thanks for noticing")
	if _, err := ctl3.Create(com2); err != nil {
		t.Fatal(err)
	}

	// W4: user 1 fixes the post.
	ctl4 := pub.NewController(s1)
	if _, err := ctl4.Find("Post", "1"); err != nil {
		t.Fatal(err)
	}
	patch := model.NewRecord("Post", "1")
	patch.Set("body", "hello")
	if _, err := ctl4.Update(patch); err != nil {
		t.Fatal(err)
	}

	got := msgs()
	if len(got) != 4 {
		t.Fatalf("published %d messages, want 4", len(got))
	}
	wantDeps := []map[wire.Token]uint64{
		{u1: 0, p1: 0},        // M1
		{u2: 0, c1: 0, p1: 1}, // M2
		{u1: 1, c2: 0, p1: 1}, // M3
		{u1: 2, p1: 3},        // M4 (p1 was read in W4 too: see below)
	}
	// Note: our W4 controller also reads p1 before updating it; the
	// paper's W4 has p1 as a pure write dependency. A key that is both
	// read and written is treated as a write (version-1 = 3), matching
	// the paper's M4 value.
	for i, want := range wantDeps {
		gotDeps := depVersions(got[i])
		if len(gotDeps) != len(want) {
			t.Errorf("M%d deps = %v, want %v", i+1, gotDeps, want)
			continue
		}
		for k, v := range want {
			if gotDeps[k] != v {
				t.Errorf("M%d dep %s = %d, want %d", i+1, k, gotDeps[k], v)
			}
		}
	}

	// Publisher counters after the full trace (the comments in Fig 8b).
	wantCounters := map[string]vstore.Counters{
		"app/users/id/1":    {Ops: 3, Version: 3},
		"app/users/id/2":    {Ops: 1, Version: 1},
		"app/posts/id/1":    {Ops: 4, Version: 4},
		"app/comments/id/1": {Ops: 1, Version: 1},
		"app/comments/id/2": {Ops: 1, Version: 1},
	}
	for name, want := range wantCounters {
		gotC := pub.Store().Counters(pub.Store().KeyFor(name))
		if gotC != want {
			t.Errorf("counters[%s] = %+v, want %+v", name, gotC, want)
		}
	}

	// The resulting dependency DAG (Fig 8c): apply the four messages to
	// a causal subscriber in the worst-case order and check completion
	// order respects M1 -> {M2, M3} -> M4.
	// Completion is recorded where the message is applied (the model
	// callbacks), not where ProcessMessage returns: a message's inline
	// increments wake its dependants before its own call has returned.
	var mu sync.Mutex
	var completed []int
	applied := func(i int) func(*model.CallbackCtx) error {
		return func(ctx *model.CallbackCtx) error {
			m := i
			if ctx.Record.ID == "2" {
				m = 2 // comment 2 is M3
			}
			mu.Lock()
			completed = append(completed, m)
			mu.Unlock()
			return nil
		}
	}
	subPost, subComment := postDesc(), commentDesc()
	subPost.Callbacks.On(model.AfterCreate, applied(0))
	subPost.Callbacks.On(model.AfterUpdate, applied(3))
	subComment.Callbacks.On(model.AfterCreate, applied(1))
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, subPost, SubSpec{From: "app", Attrs: []string{"body", "author"}})
	mustSubscribe(t, sub, subComment, SubSpec{From: "app", Attrs: []string{"body", "post", "author"}})
	drainQueue(t, sub) // discard queued copies; we replay manually

	var wg sync.WaitGroup
	for _, order := range []int{3, 2, 1, 0} { // M4 first, M1 last
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := sub.ProcessMessage(got[i]); err != nil {
				t.Errorf("M%d: %v", i+1, err)
			}
		}(order)
		time.Sleep(5 * time.Millisecond) // let each goroutine block first
	}
	wg.Wait()
	if len(completed) != 4 {
		t.Fatalf("applied %v, want all four messages", completed)
	}
	pos := make(map[int]int)
	for p, i := range completed {
		pos[i] = p
	}
	if !(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Errorf("completion order %v violates Fig 8c DAG", completed)
	}
}

// drainQueue discards everything currently queued for the app.
func drainQueue(t *testing.T, a *App) {
	t.Helper()
	q := a.Queue()
	for {
		d, ok, err := q.TryGet()
		if err != nil || !ok {
			return
		}
		_ = q.Ack(d.Tag)
	}
}
