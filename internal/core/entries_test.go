package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/orm"
)

// TestEveryEntryAppliesAlike feeds one seeded stream — creates, updates
// and destroys from a global, a causal and a weak subscription, hash and
// DVV publishers, one global publisher subscribed only causally — to
// three subscribers that differ only in how a delivery enters: a worker
// pool, ProcessMessage, and bootstrap's drain (a one-lane worker's
// steps, waiting for nothing while bootstrapping). All three
// must store the same rows and hold the same version-store state.
func TestEveryEntryAppliesAlike(t *testing.T) {
	origins := []struct {
		name, model string
		pub         Config
		mode        DeliveryMode
	}{
		{"pg", "Account", Config{Mode: Global, DepCardinality: 16}, Global},
		{"px", "Order", Config{Mode: Global, DepTracker: TrackerDVV}, Causal},
		{"pc", "Note", Config{Mode: Causal, DepTracker: TrackerDVV}, Causal},
		// Unhashed: a weak subscriber's workers may apply two objects that
		// share a hashed key out of order and discard the older as stale.
		{"pw", "Tag", Config{Mode: Causal}, Weak},
	}
	desc := func(name string) *model.Descriptor {
		return model.NewDescriptor(name, model.Field{Name: "n", Type: model.Int}, model.Field{Name: "s", Type: model.String})
	}
	f := NewFabric()
	pubs := make([]*App, len(origins))
	for i, o := range origins {
		pubs[i], _ = newDocApp(t, f, o.name, o.pub)
		mustPublish(t, pubs[i], desc(o.model), "n", "s")
	}
	subs := make([]*App, 3)
	mappers := make([]orm.Mapper, 3)
	for i, name := range []string{"workers", "process", "drain"} {
		subs[i], mappers[i] = newDocApp(t, f, name, Config{PipelineDepth: 4})
		for _, o := range origins {
			mustSubscribe(t, subs[i], desc(o.model), SubSpec{From: o.name, Attrs: []string{"n", "s"}, Mode: o.mode})
		}
	}
	workers, process, drainer := subs[0], subs[1], subs[2]
	workers.StartWorkers(2)
	defer workers.StopWorkers()

	rng := rand.New(rand.NewSource(27))
	live := make([]map[string]bool, len(origins))
	for i := range live {
		live[i] = make(map[string]bool)
	}
	const ops = 400
	for op := 0; op < ops; op++ {
		o := rng.Intn(len(origins))
		name, id := origins[o].model, fmt.Sprintf("o%d", rng.Intn(8))
		ctl := pubs[o].NewController(nil)
		if rng.Intn(3) == 0 {
			ctl.AddReadDeps(name, fmt.Sprintf("o%d", rng.Intn(8)))
		}
		rec := model.NewRecord(name, id)
		rec.Set("n", op)
		rec.Set("s", fmt.Sprintf("v%d", rng.Intn(100)))
		var err error
		switch {
		case !live[o][id]:
			_, err = ctl.Create(rec)
			live[o][id] = true
		case rng.Intn(5) == 0:
			err = ctl.Destroy(name, id)
			live[o][id] = false
		default:
			_, err = ctl.Update(rec)
		}
		if err != nil {
			t.Fatalf("op %d on %s/%s: %v", op, name, id, err)
		}
	}

	drain(t, process)
	q := drainer.Queue()
	drainer.bootDepth.Add(1)
	w := drainer.newWorker(1)
	defer w.close()
	for {
		d, ok, err := q.TryGet()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		w.runFetched(q, d)
	}
	drainer.bootDepth.Add(-1)
	waitFor(t, 10*time.Second, func() bool { return workers.Stats().Processed == ops })

	rows := func(m orm.Mapper) []string {
		var out []string
		for _, o := range origins {
			if err := m.Each(o.model, "", func(r *model.Record) bool {
				out = append(out, fmt.Sprintf("%s/%s %s", o.model, r.ID, sortedAttrs(r)))
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		sort.Strings(out)
		return out
	}
	want := rows(mappers[1])
	wantSnap, err := process.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(wantSnap) == 0 {
		t.Fatalf("ProcessMessage stored %d rows and %d counters: the stream never reached the apply", len(want), len(wantSnap))
	}
	for _, i := range []int{0, 2} {
		if got := rows(mappers[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows diverge from ProcessMessage's\n     got: %v\n    want: %v", subs[i].Name(), got, want)
		}
		snap, err := subs[i].Store().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Errorf("%s version store diverges from ProcessMessage's\n     got: %v\n    want: %v", subs[i].Name(), snap, wantSnap)
		}
	}
}
