package orm

import (
	"fmt"
	"sync"
	"testing"

	"synapse/internal/model"
)

func TestTableize(t *testing.T) {
	cases := map[string]string{
		"User":       "users",
		"Friendship": "friendships",
		"Activity":   "activities",
		"Boy":        "boys", // vowel before y
		"Class":      "classes",
		"Box":        "boxes",
		"Match":      "matches",
		"Dish":       "dishes",
		"Post":       "posts",
	}
	for in, want := range cases {
		if got := Tableize(in); got != want {
			t.Errorf("Tableize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Tableize is memoised: a repeated name costs no allocation, the memo
// agrees with the derivation for names met concurrently for the first
// time, and it stops growing at its cap without changing a result.
func TestTableizeMemo(t *testing.T) {
	Tableize("Comment")
	if n := testing.AllocsPerRun(100, func() { Tableize("Comment") }); n != 0 {
		t.Errorf("memoised Tableize = %v allocs/op, want 0", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tableNamesMax+200; i++ {
				name := fmt.Sprintf("Model%dy", i)
				if got, want := Tableize(name), tableize(name); got != want {
					t.Errorf("Tableize(%q) = %q, want %q", name, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*tableNames.Load()); n > tableNamesMax {
		t.Errorf("memo holds %d names, cap is %d", n, tableNamesMax)
	}
}

func TestRegistryDescriptor(t *testing.T) {
	var r Registry
	d := model.NewDescriptor("User", model.Field{Name: "name", Type: model.String})
	r.Add(d)
	got, ok := r.Descriptor("User")
	if !ok || got != d {
		t.Fatal("Descriptor lookup failed")
	}
	if _, ok := r.Descriptor("Missing"); ok {
		t.Fatal("Descriptor hit unregistered model")
	}
	if names := r.Models(); len(names) != 1 || names[0] != "User" {
		t.Errorf("Models = %v", names)
	}
}

type fakeHost struct {
	boot bool
	env  map[string]any
}

func (h *fakeHost) Bootstrapping() bool { return h.boot }
func (h *fakeHost) Env() map[string]any { return h.env }

func TestRunCallbacksHostContext(t *testing.T) {
	var r Registry
	d := model.NewDescriptor("User", model.Field{Name: "name", Type: model.String})
	var sawBoot bool
	var sawEnv map[string]any
	d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		sawBoot = ctx.Bootstrapping
		sawEnv = ctx.Env
		return nil
	})
	r.Add(d)

	rec := model.NewRecord("User", "u1")
	// Without a host: not bootstrapping, no env.
	if err := r.RunCallbacks(model.AfterCreate, rec); err != nil {
		t.Fatal(err)
	}
	if sawBoot || sawEnv != nil {
		t.Error("nil host leaked context")
	}
	// With a host.
	env := map[string]any{"outbox": []string{}}
	r.SetHost(&fakeHost{boot: true, env: env})
	if err := r.RunCallbacks(model.AfterCreate, rec); err != nil {
		t.Fatal(err)
	}
	if !sawBoot {
		t.Error("bootstrap flag not propagated")
	}
	if len(sawEnv) != 1 {
		t.Error("env not propagated")
	}
}

func TestRunCallbacksUnknownModel(t *testing.T) {
	var r Registry
	rec := model.NewRecord("Ghost", "1")
	if err := r.RunCallbacks(model.AfterCreate, rec); err != ErrUnknownModel {
		t.Errorf("RunCallbacks unknown model = %v", err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	var s Stats
	s.Reads.Add(2)
	s.Writes.Add(3)
	s.ExtraReads.Add(1)
	r, w, x := s.Snapshot()
	if r != 2 || w != 3 || x != 1 {
		t.Errorf("Snapshot = %d %d %d", r, w, x)
	}
}
