package core

import (
	"runtime/debug"
	"testing"

	"synapse/internal/model"
)

// skipUnderRace skips an allocation budget: the race detector makes
// sync.Pool drop items on purpose and allocates on its own account.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool is lossy under the race detector")
			}
		}
	}
}

// TestPublishAllocBudget pins what one journaled publish allocates on
// the benchmark's two publisher paths, causal mode, one Update with one
// read dependency: social_causal's PostgreSQL publisher (2PC, the entry
// staged in the transaction) and fanout_hetero's MongoDB publisher (the
// entry inserted after the apply). The journal's share of it is the
// append alone — confirming an entry allocates nothing and truncation is
// amortised over 256 messages. The race detector makes sync.Pool drop
// items on purpose, so the steady state is only observable without it.
func TestPublishAllocBudget(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name   string
		app    func(*testing.T, *Fabric) *App
		budget float64
	}{
		// 17 measured, 4 of them the loop's own record and read dependency:
		// the rest is what outlives the publish — the engine's journal row
		// (its id, its copy of the publication's map, the payload string)
		// and row slot, the record Update returns (a copy of the stored
		// row), the payload, the transaction — and the two dependency
		// names. 54 before the lock table, the transaction, the plan and
		// the message stopped building what they throw away; 72 as of the
		// outbox rebuild, 131 before it.
		{"postgresql 2PC", func(t *testing.T, f *Fabric) *App {
			pub, _ := newSQLApp(t, f, "pub", Config{Mode: Causal})
			return pub
		}, 18},
		// 18 measured (20 while every journal entry built its own map): no
		// transaction, but the engine clones the row it stores and the one
		// Update returns, and the entry is a plain insert, whose written row
		// Create still copies out.
		{"mongodb direct journal", func(t *testing.T, f *Fabric) *App {
			pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
			return pub
		}, 19},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFabric()
			pub := c.app(t, f)
			mustPublish(t, pub, userDesc(), "name")
			mustPublish(t, pub, postDesc(), "author", "body")
			tap(t, f, "pub") // a bound queue, so the broker does its enqueue work

			seed := pub.NewController(nil)
			u := model.NewRecord("User", "u1")
			u.Set("name", "alice")
			if _, err := seed.Create(u); err != nil {
				t.Fatal(err)
			}
			p := model.NewRecord("Post", "p1")
			p.Set("author", "u1")
			p.Set("body", "v0")
			if _, err := seed.Create(p); err != nil {
				t.Fatal(err)
			}

			publish := func() {
				ctl := pub.NewController(nil)
				ctl.AddReadDeps("User", "u1")
				patch := model.NewRecord("Post", "p1")
				patch.Set("body", "v1")
				if _, err := ctl.Update(patch); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*outboxCutEvery; i++ { // warm pools, maps and the first cuts
				publish()
			}
			n := testing.AllocsPerRun(4*outboxCutEvery, publish)
			if n > c.budget {
				t.Errorf("journaled causal Update = %v allocs/op, want <= %v", n, c.budget)
			}
			t.Logf("journaled causal Update = %v allocs/op", n)
			if d := pub.JournalDepth(); d != 0 {
				t.Errorf("JournalDepth = %d after confirmed publishes, want 0", d)
			}
		})
	}
}
