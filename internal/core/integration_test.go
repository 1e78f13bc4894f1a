package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/columnorm"
	"synapse/internal/orm/documentorm"
	"synapse/internal/orm/graphorm"
	"synapse/internal/orm/searchorm"
	"synapse/internal/storage/coldb"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/graphdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/storage/searchdb"
)

func mapperFor(engine string) orm.Mapper {
	switch engine {
	case "postgresql":
		return activerecord.New(reldb.New(reldb.Postgres))
	case "mysql":
		return activerecord.New(reldb.New(reldb.MySQL))
	case "oracle":
		return activerecord.New(reldb.New(reldb.Oracle))
	case "mongodb":
		return documentorm.New(docdb.New(docdb.MongoDB))
	case "tokumx":
		return documentorm.New(docdb.New(docdb.TokuMX))
	case "rethinkdb":
		return documentorm.New(docdb.New(docdb.RethinkDB))
	case "cassandra":
		return columnorm.New(coldb.New())
	case "elasticsearch":
		return searchorm.New(searchdb.New())
	case "neo4j":
		return graphorm.New(graphdb.New())
	}
	panic("unknown engine " + engine)
}

var pubEngines = []string{"postgresql", "mysql", "oracle", "mongodb", "tokumx", "rethinkdb", "cassandra"}
var subEngines = []string{"postgresql", "mysql", "oracle", "mongodb", "tokumx", "rethinkdb", "cassandra", "elasticsearch", "neo4j"}

// TestEngineMatrix replicates create/update/destroy across every
// publisher-capable engine paired with every subscriber engine — the
// "many combinations of heterogeneous DBs" claim of §1, exhaustively.
func TestEngineMatrix(t *testing.T) {
	for _, pubEngine := range pubEngines {
		for _, subEngine := range subEngines {
			t.Run(pubEngine+"_to_"+subEngine, func(t *testing.T) {
				f := NewFabric()
				pub, err := NewApp(f, "pub", mapperFor(pubEngine), Config{Mode: Causal})
				if err != nil {
					t.Fatal(err)
				}
				sub, err := NewApp(f, "sub", mapperFor(subEngine), Config{})
				if err != nil {
					t.Fatal(err)
				}
				mustPublish(t, pub, userDesc(), "name", "likes")
				mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}})

				ctl := pub.NewController(pub.NewSession("User", "u1"))
				rec := model.NewRecord("User", "u1")
				rec.Set("name", "alice")
				rec.Set("likes", 1)
				if _, err := ctl.Create(rec); err != nil {
					t.Fatal(err)
				}
				patch := model.NewRecord("User", "u1")
				patch.Set("likes", 2)
				if _, err := ctl.Update(patch); err != nil {
					t.Fatal(err)
				}
				rec2 := model.NewRecord("User", "u2")
				rec2.Set("name", "bob")
				if _, err := ctl.Create(rec2); err != nil {
					t.Fatal(err)
				}
				if err := ctl.Destroy("User", "u2"); err != nil {
					t.Fatal(err)
				}
				drain(t, sub)

				got, err := sub.Mapper().Find("User", "u1")
				if err != nil {
					t.Fatalf("replicated record missing: %v", err)
				}
				if got.String("name") != "alice" || got.Int("likes") != 2 {
					t.Errorf("replicated state = %+v", got.Attrs)
				}
				if _, err := sub.Mapper().Find("User", "u2"); err == nil {
					t.Error("destroyed record survived on subscriber")
				}
			})
		}
	}
}

// TestQuickConvergenceRandomOps drives random controller operations on
// the publisher and random worker counts and window depths on two
// subscribers, checking that each one's final state converges to the
// publisher's — the core replication invariant — under causal and weak
// delivery, and that no recorded history lowers an object's version.
// The weak subscriber applies out of order, so its claims lose where the
// causal one's do not.
func TestQuickConvergenceRandomOps(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(4)
		depth := []int{1, 4}[rng.Intn(2)]
		f := NewFabric()
		pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
		sub, _ := newSQLApp(t, f, "sub", Config{PipelineDepth: depth})
		weak, _ := newDocApp(t, f, "weak", Config{PipelineDepth: depth})
		mustPublish(t, pub, userDesc(), "name", "likes")
		mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}})
		mustSubscribe(t, weak, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}, Mode: Weak})
		record(t, pub)
		for _, s := range []*App{sub, weak} {
			record(t, s)
			s.StartWorkers(workers)
			defer s.StopWorkers()
		}
		defer func() {
			if t.Failed() {
				for _, s := range []*App{sub, weak} {
					st := s.Stats()
					t.Logf("seed %d (workers=%d depth=%d): %s processed=%d blocked=%d parked=%q",
						seed, workers, depth, s.name, st.Processed, st.DepWaitsBlocked, st.Parked)
				}
			}
		}()

		const objects = 6
		live := make(map[string]bool)
		sessions := make([]*Session, 3)
		for i := range sessions {
			sessions[i] = pub.NewSession("User", fmt.Sprintf("sess%d", i))
		}
		for op := 0; op < 60; op++ {
			id := fmt.Sprintf("u%d", rng.Intn(objects))
			ctl := pub.NewController(sessions[rng.Intn(len(sessions))])
			switch {
			case !live[id]:
				rec := model.NewRecord("User", id)
				rec.Set("name", fmt.Sprintf("name-%d", op))
				rec.Set("likes", op)
				if _, err := ctl.Create(rec); err != nil {
					t.Logf("seed %d: create: %v", seed, err)
					return false
				}
				live[id] = true
			case rng.Float64() < 0.2:
				if err := ctl.Destroy("User", id); err != nil {
					t.Logf("seed %d: destroy: %v", seed, err)
					return false
				}
				live[id] = false
			default:
				patch := model.NewRecord("User", id)
				patch.Set("likes", op)
				if rng.Float64() < 0.5 {
					patch.Set("name", fmt.Sprintf("name-%d", op))
				}
				if _, err := ctl.Update(patch); err != nil {
					t.Logf("seed %d: update: %v", seed, err)
					return false
				}
			}
		}

		mustSettle(t, 10*time.Second, pub, sub, weak)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPublishersOneSubscriber: several publisher apps feeding
// one subscriber queue keep per-origin ordering and all data arrives.
func TestConcurrentPublishersOneSubscriber(t *testing.T) {
	f := NewFabric()
	sub, subMapper := newDocApp(t, f, "sub", Config{})

	const pubs = 3
	for p := 0; p < pubs; p++ {
		name := fmt.Sprintf("pub%d", p)
		pub, _ := newDocApp(t, f, name, Config{Mode: Causal})
		d := model.NewDescriptor(fmt.Sprintf("Model%d", p),
			model.Field{Name: "v", Type: model.Int},
		)
		mustPublish(t, pub, d, "v")
		subD := model.NewDescriptor(fmt.Sprintf("Model%d", p),
			model.Field{Name: "v", Type: model.Int},
		)
		mustSubscribe(t, sub, subD, SubSpec{From: name, Attrs: []string{"v"}})
	}
	sub.StartWorkers(4)
	defer sub.StopWorkers()

	done := make(chan error, pubs)
	for p := 0; p < pubs; p++ {
		go func(p int) {
			pub, _ := f.App(fmt.Sprintf("pub%d", p))
			ctl := pub.NewController(nil)
			for i := 0; i < 30; i++ {
				rec := model.NewRecord(fmt.Sprintf("Model%d", p), fmt.Sprintf("m%d", i))
				rec.Set("v", i)
				if _, err := ctl.Create(rec); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(p)
	}
	for p := 0; p < pubs; p++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		for p := 0; p < pubs; p++ {
			if subMapper.Len(fmt.Sprintf("Model%d", p)) != 30 {
				return false
			}
		}
		return true
	})
}

// TestHighConcurrencyStress: many publisher goroutines and subscriber
// workers hammering overlapping objects; a causal and a weak subscriber
// both converge, no message is lost, and no recorded history puts an
// object's version after a newer one.
func TestHighConcurrencyStress(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, VStoreShards: 4})
	sub, _ := newDocApp(t, f, "sub", Config{VStoreShards: 4})
	weak, _ := newSQLApp(t, f, "weak", Config{VStoreShards: 4})
	mustPublish(t, pub, userDesc(), "likes")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}})
	mustSubscribe(t, weak, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}, Mode: Weak})
	record(t, pub)
	for _, s := range []*App{sub, weak} {
		record(t, s)
		s.StartWorkers(8)
		defer s.StopWorkers()
	}

	// Seed objects.
	seed := pub.NewController(nil)
	const objects = 8
	for i := 0; i < objects; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("likes", 0)
		if _, err := seed.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	const writers, updates = 6, 40
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			sess := pub.NewSession("User", fmt.Sprintf("writer%d", w))
			for i := 0; i < updates; i++ {
				ctl := pub.NewController(sess)
				patch := model.NewRecord("User", fmt.Sprintf("u%d", (w+i)%objects))
				patch.Set("likes", w*1000+i)
				if _, err := ctl.Update(patch); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	mustSettle(t, 15*time.Second, pub, sub, weak)
	if got := sub.Stats().Processed; got < writers*updates {
		t.Errorf("processed %d messages, want >= %d", got, writers*updates)
	}
}
