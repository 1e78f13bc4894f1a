package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/storage"
	"synapse/internal/workload"
)

// pairSpec describes the publisher→subscriber pair most experiments run
// on: app "pub" publishes every attribute of every model, app "sub"
// subscribes to all of them. An Ephemeral engine makes that side
// DB-less (ephemeral publications, observer subscriptions).
type pairSpec struct {
	PubEngine, SubEngine   string // "" = MongoDB
	PubProfile, SubProfile storage.Profile
	Pub, Sub               core.Config
	// Models returns fresh descriptors; it is called once per app.
	Models func() []*model.Descriptor
	// OnSub, when set, sees each subscriber-side descriptor before it is
	// subscribed — where an experiment hangs its callbacks.
	OnSub func(*model.Descriptor)
	// Mode is the subscriptions' delivery mode (zero = the publisher's,
	// capped at causal).
	Mode core.DeliveryMode
}

type pairApps struct {
	f        *core.Fabric
	pub, sub *core.App
}

func engineOr(engine string) string {
	if engine == "" {
		return MongoDB
	}
	return engine
}

// pair builds the fabric and both apps; no workers are started.
func pair(spec pairSpec) *pairApps {
	p := &pairApps{f: core.NewFabric()}
	engine := engineOr(spec.PubEngine)
	p.pub = mustApp(p.f, "pub", NewMapper(engine, spec.PubProfile), spec.Pub)
	for _, d := range spec.Models() {
		must(p.pub.Publish(d, core.PubSpec{Attrs: d.FieldNames(), Ephemeral: engine == Ephemeral}))
	}
	engine = engineOr(spec.SubEngine)
	p.sub = mustApp(p.f, "sub", NewMapper(engine, spec.SubProfile), spec.Sub)
	for _, d := range spec.Models() {
		if spec.OnSub != nil {
			spec.OnSub(d)
		}
		must(p.sub.Subscribe(d, core.SubSpec{From: "pub", Attrs: d.FieldNames(), Mode: spec.Mode, Observer: engine == Ephemeral}))
	}
	return p
}

// afterWrite is the OnSub that runs cb after every applied create and
// update — the subscriber's per-message application work.
func afterWrite(cb model.Callback) func(*model.Descriptor) {
	return func(d *model.Descriptor) {
		d.Callbacks.On(model.AfterCreate, cb)
		d.Callbacks.On(model.AfterUpdate, cb)
	}
}

// socialWriter turns generated §6.3 social operations into controller
// writes on pub: a Post, or a Comment that reads its Post, each in the
// issuing user's session. Safe for concurrent use.
type socialWriter struct {
	pub      *core.App
	sessions sync.Map // userID -> *core.Session
}

// write performs one operation; set, when non-nil, adds attributes to
// the record before it is created.
func (w *socialWriter) write(op workload.SocialOp, set func(*model.Record)) {
	sess, _ := w.sessions.LoadOrStore(op.UserID, w.pub.NewSession("User", op.UserID))
	ctl := w.pub.NewController(sess.(*core.Session))
	rec := model.NewRecord("Post", op.ID)
	if op.Kind == workload.OpComment {
		ctl.AddReadDeps("Post", op.PostID)
		rec = model.NewRecord("Comment", op.ID)
		rec.Set("post", op.PostID)
	}
	rec.Set("author", op.UserID)
	rec.Set("body", "b")
	if set != nil {
		set(rec)
	}
	_, err := ctl.Create(rec)
	must(err)
}

// backlog is how many messages keep workers busy for half again the
// measured window at one callback per message.
func backlog(window, callback time.Duration, workers int) int {
	return int(1.5*window.Seconds()/callback.Seconds())*workers + 100
}

// applyRate returns the messages per second sub applies over window.
func applyRate(sub *core.App, window time.Duration) float64 {
	start := time.Now()
	before := sub.Stats().Processed
	time.Sleep(window)
	applied := sub.Stats().Processed - before
	return float64(applied) / time.Since(start).Seconds()
}

// drainRate starts workers on a subscriber whose queue already holds a
// backlog and returns the messages per second it applied over window.
func drainRate(sub *core.App, workers int, window time.Duration) float64 {
	sub.StartWorkers(workers)
	defer sub.StopWorkers()
	return applyRate(sub, window)
}

// waitConverged is core.Settle with a timeout.
func waitConverged(timeout time.Duration, pub *core.App, subs ...*core.App) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return core.Settle(ctx, pub, subs...)
}

// createItem creates Item id on app with deps-1 read dependencies plus
// the object's own write dependency (deps per message in total) and
// returns how long the controller write took.
func createItem(app *core.App, id string, deps int) time.Duration {
	ctl := app.NewController(nil)
	for d := 0; d < deps-1; d++ {
		ctl.AddReadDeps("Item", fmt.Sprintf("dep-%d", d))
	}
	rec := model.NewRecord("Item", id)
	rec.Set("payload", "x")
	start := time.Now()
	_, err := ctl.Create(rec)
	must(err)
	return time.Since(start)
}
