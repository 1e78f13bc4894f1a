package core

import (
	"fmt"
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
// the benchmark's two publisher paths, causal mode, one write with one
// read dependency, for each verb: social_causal's PostgreSQL publisher
// (2PC, the entry staged in the transaction) and fanout_hetero's MongoDB
// publisher (the entry inserted after the apply); and the PostgreSQL
// path in global mode and under the DVV tracker. The journal's share of
// it is the append alone — confirming an entry allocates nothing and
// truncation is amortised over 256 messages. The race detector makes
// sync.Pool drop items on purpose, so the steady state is only
// observable without it.
func TestPublishAllocBudget(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name                    string
		app                     func(*testing.T, *Fabric) *App
		update, create, destroy float64
	}{
		// Update 10, Create 12, Destroy 6 measured; 13, 15 and 9 while the
		// entry's id and payload were two strings and the dependency names
		// were built, 16, 18 and 14 while every publish allocated its
		// transaction and no dropped row gave its map back, 18, 21 and 22
		// while a destroy merged a load taken before its locks into a record
		// of its own, the transaction built records of the delete, and the
		// row tree boxed every row it stored. Of each, the loop's controller
		// and record are 2 to 4. The rest is what outlives the publish: the
		// engine's journal row (one string, the id its prefix and the
		// payload the rest, and that payload's box; its copy of the
		// publication's map reuses the map of an entry the last cut
		// dropped), the row a create stores, the record Update or Create
		// returns (a copy of the stored row), a destroy's load of the final
		// state (whose stored row's map the commit's delete gives back), and
		// the payload. The dependency names are resolved from their parts
		// and never built; the transaction comes from the mapper's pool.
		{"postgresql 2PC", func(t *testing.T, f *Fabric) *App {
			pub, _ := newSQLApp(t, f, "pub", Config{Mode: Causal})
			return pub
		}, 10, 12, 6},
		// Update 13, Create 15, Destroy 11 measured; 16, 18 and 14 while
		// the entry's id and payload were two strings and the names were
		// built, 18, 20 and 16 while no dropped row gave its map back, 19,
		// 21 and 19 while the destroy's load was merged into its staged
		// record and the read dependency had no room in the controller. No
		// transaction, but the engine clones the row it stores and the one a
		// write returns, and the entry is a plain insert, whose written row
		// Create still copies out; the entry's stored map is one a cut
		// dropped.
		{"mongodb direct journal", func(t *testing.T, f *Fabric) *App {
			pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
			return pub
		}, 13, 15, 11},
		// The same as causal: the app's global key and token are resolved
		// once, when it is made. 16, 18 and 12 while each publish built the
		// global name twice and boxed its token.
		{"postgresql 2PC global", func(t *testing.T, f *Fabric) *App {
			pub, _ := newSQLApp(t, f, "pub", Config{Mode: Global})
			return pub
		}, 10, 12, 6},
		// The hash path's, but a Create interns its new object's name: the
		// one copy of it the tracker keeps. 13, 15 and 9 while the names
		// were built.
		{"postgresql 2PC dvv", func(t *testing.T, f *Fabric) *App {
			pub, _ := newSQLApp(t, f, "pub", Config{Mode: Causal, DepTracker: TrackerDVV})
			return pub
		}, 10, 13, 6},
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

			// Each verb's loop: 2 cut intervals to warm pools, maps and the
			// first cuts, then AllocsPerRun's warm-up run and 4 intervals.
			const warm, runs = 2 * outboxCutEvery, 4 * outboxCutEvery
			ids := make([]string, warm+runs+1) // the Posts created, then destroyed
			for i := range ids {
				ids[i] = fmt.Sprintf("c%05d", i)
			}
			var created, destroyed int
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, l := range []struct {
				verb    string
				budget  float64
				publish func(*Controller)
			}{
				{"Update", c.update, func(ctl *Controller) {
					patch := model.NewRecord("Post", "p1")
					patch.Set("body", "v1")
					_, err := ctl.Update(patch)
					must(err)
				}},
				{"Create", c.create, func(ctl *Controller) {
					rec := model.NewRecord("Post", ids[created])
					rec.Set("author", "u1")
					rec.Set("body", "v0")
					created++
					_, err := ctl.Create(rec)
					must(err)
				}},
				{"Destroy", c.destroy, func(ctl *Controller) {
					destroyed++
					must(ctl.Destroy("Post", ids[destroyed-1]))
				}},
			} {
				publish := func() {
					ctl := pub.NewController(nil)
					ctl.AddReadDeps("User", "u1")
					l.publish(ctl)
				}
				for i := 0; i < warm; i++ {
					publish()
				}
				n := testing.AllocsPerRun(runs, publish)
				if n > l.budget {
					t.Errorf("journaled %s = %v allocs/op, want <= %v", l.verb, n, l.budget)
				}
				t.Logf("journaled %s = %v allocs/op", l.verb, n)
			}
			if d := pub.JournalDepth(); d != 0 {
				t.Errorf("JournalDepth = %d after confirmed publishes, want 0", d)
			}
		})
	}
}
