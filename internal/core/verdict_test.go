package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/netsim"
)

// mustSettle fails the test unless subs converge on pub within timeout,
// and unless the history of each app with a recorder keeps its rules.
func mustSettle(t *testing.T, timeout time.Duration, pub *App, subs ...*App) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	settled := Settle(ctx, pub, subs...)
	if settled != nil {
		settled = fmt.Errorf("never converged: %w", settled)
	}
	if err := errors.Join(settled, checkRecorded(append([]*App{pub}, subs...)...)); err != nil {
		t.Fatal(err)
	}
}

// verdictApps is a pub→sub pair on a simulated network. The publisher
// also publishes a virtual attribute its database does not store, which
// the verdict skips.
func verdictApps(t *testing.T) (f *Fabric, pub, sub *App) {
	t.Helper()
	f = NewFabric()
	f.Net = netsim.New(1)
	pub, _ = newDocApp(t, f, "pub", Config{})
	pd := userDesc()
	pd.DefineVirtual(&model.VirtualAttr{Name: "display", Get: func(r *model.Record) any { return "@" + r.ID }})
	mustPublish(t, pub, pd, "name", "likes", "display")
	sub, _ = newSQLApp(t, f, "sub", Config{})
	sd := userDesc()
	sd.AddField(model.Field{Name: "display", Type: model.String})
	mustSubscribe(t, sub, sd, SubSpec{From: "pub", Attrs: []string{"name", "likes", "display"}})
	return f, pub, sub
}

// verdictPair is verdictApps converged on u1 and u2, with the
// subscriber's workers stopped.
func verdictPair(t *testing.T) (f *Fabric, pub, sub *App) {
	t.Helper()
	f, pub, sub = verdictApps(t)
	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "alice")
	createUser(t, ctl, "u2", "bob")
	sub.StartWorkers(1)
	mustSettle(t, 5*time.Second, pub, sub)
	sub.StopWorkers()
	return f, pub, sub
}

// TestConverged: each way an ecosystem can be short of converged fails
// the verdict with the app, and the object where there is one, named.
func TestConverged(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(t *testing.T, f *Fabric, pub, sub *App)
		want []string
	}{
		{"the journal owes a send", func(t *testing.T, f *Fabric, pub, sub *App) {
			f.Net.Partition("pub", EndpointBroker)
			updateUser(t, pub.NewController(nil), "u1", "stranded")
		}, []string{"pub: journal still owes 1 sends"}},
		{"a delivery is queued", func(t *testing.T, f *Fabric, pub, sub *App) {
			updateUser(t, pub.NewController(nil), "u1", "queued")
		}, []string{"sub: 1 deliveries queued, 0 unacked"}},
		{"a delivery is unacked", func(t *testing.T, f *Fabric, pub, sub *App) {
			updateUser(t, pub.NewController(nil), "u1", "fetched")
			if ds, err := sub.Queue().GetBatch(1); err != nil || len(ds) != 1 {
				t.Fatalf("GetBatch = %d deliveries, %v", len(ds), err)
			}
		}, []string{"sub: 0 deliveries queued, 1 unacked"}},
		{"an ack is parked", func(t *testing.T, f *Fabric, pub, sub *App) {
			updateUser(t, pub.NewController(nil), "u1", "applied")
			q := sub.Queue()
			ds, err := q.GetBatch(1)
			if err != nil || len(ds) != 1 {
				t.Fatalf("GetBatch = %d deliveries, %v", len(ds), err)
			}
			sub.parkAck(pendingAck{q: q, tag: ds[0].Tag, kind: ackAck})
		}, []string{"sub: 1 acks parked"}},
		{"an object is missing", func(t *testing.T, f *Fabric, pub, sub *App) {
			if err := sub.Mapper().Delete("User", "u2"); err != nil {
				t.Fatal(err)
			}
		}, []string{"sub lacks User/u2", "bob"}},
		{"an attribute differs", func(t *testing.T, f *Fabric, pub, sub *App) {
			rec := model.NewRecord("User", "u1")
			rec.Set("name", "stale")
			rec.Set("display", "@u1")
			if err := sub.Mapper().Save(rec); err != nil {
				t.Fatal(err)
			}
		}, []string{"sub has User/u1", "stale", "pub has", "alice"}},
		{"the subscriber holds an object the publisher deleted", func(t *testing.T, f *Fabric, pub, sub *App) {
			if err := pub.Mapper().Delete("User", "u2"); err != nil {
				t.Fatal(err)
			}
		}, []string{"sub has User/u2", "pub does not"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, pub, sub := verdictPair(t)
			tc.fail(t, f, pub, sub)
			err := Converged(pub, sub)
			if err == nil {
				t.Fatal("Converged = nil")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("Converged = %q, want it to name %q", err, w)
				}
			}
		})
	}
}

// TestConvergedSkipsObserversAndVirtuals: an observer holds no rows, and
// an attribute a subscriber's virtual setter maps elsewhere (or a
// publisher's getter computes) is not stored as published; neither is
// compared, while every stored attribute still is.
func TestConvergedSkipsObserversAndVirtuals(t *testing.T) {
	f, pub, sub := verdictApps(t)
	obs, err := NewApp(f, "obs", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubscribe(t, obs, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Observer: true})
	alias, _ := newDocApp(t, f, "alias", Config{})
	ad := model.NewDescriptor("User", model.Field{Name: "handle", Type: model.String}, model.Field{Name: "likes", Type: model.Int})
	ad.DefineVirtual(&model.VirtualAttr{Name: "name", Set: func(r *model.Record, v any) error {
		r.Set("handle", strings.ToUpper(v.(string)))
		return nil
	}})
	mustSubscribe(t, alias, ad, SubSpec{From: "pub", Attrs: []string{"name", "likes"}})
	for _, a := range []*App{sub, obs, alias} {
		a.StartWorkers(1)
		defer a.StopWorkers()
	}
	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "alice")
	createUser(t, ctl, "u3", "carol")
	updateUser(t, ctl, "u1", "alice2")
	mustSettle(t, 5*time.Second, pub, sub, obs, alias)
	if got, err := alias.Mapper().Find("User", "u1"); err != nil || got.String("handle") != "ALICE2" {
		t.Fatalf("alias u1 = %v, %v: the setter never ran", got, err)
	}

	rec := model.NewRecord("User", "u3")
	rec.Set("likes", int64(7))
	if err := alias.Mapper().Save(rec); err != nil {
		t.Fatal(err)
	}
	if err := Converged(pub, alias); err == nil || !strings.Contains(err.Error(), "alias has User/u3") {
		t.Fatalf("Converged = %v, want the stored attribute beside the virtual one compared", err)
	}
}

// TestSettleFailsAtItsDeadline: a message that never applied is an error
// naming what is still in flight — not a silent return a measurement
// then reads as "done" — and the same pair settles once a worker runs.
func TestSettleFailsAtItsDeadline(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	createUser(t, pub.NewController(nil), "u1", "alice")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := Settle(ctx, pub, sub)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "sub: 1 deliveries queued") {
		t.Fatalf("Settle with no worker running = %v, want the undelivered message reported at the deadline", err)
	}
	sub.StartWorkers(1)
	defer sub.StopWorkers()
	mustSettle(t, 5*time.Second, pub, sub)
}
