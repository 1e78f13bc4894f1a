package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/storage"
)

// ecosystem wires the §5.2 open-source social ecosystem used by the
// Fig 9 execution samples: Diaspora (PostgreSQL) publishes posts and
// users, a mailer observes posts, a semantic analyzer decorates users
// with interests, and both Diaspora and Spree (MySQL) subscribe to the
// decorated model.
type ecosystem struct {
	fabric   *core.Fabric
	diaspora *core.App
	mailer   *core.App
	analyzer *core.App
	spree    *core.App
	timeline *Timeline
}

// Timeline is a Fig 9 execution sample: rows stamped with their offset
// from the run's start, in the order they happened.
type Timeline struct {
	mu     sync.Mutex
	origin time.Time
	events []Event
}

// Event is one row of a Timeline.
type Event struct {
	At    time.Duration
	Actor string // "diaspora", "mailer", ...
	Phase string // "app", "synapse-pub" or "synapse-sub"
	Label string
}

// Record appends a row stamped now. The stamp is taken under the lock,
// so rows are appended in time order.
func (t *Timeline) Record(actor, phase, label string) {
	t.mu.Lock()
	t.events = append(t.events, Event{time.Since(t.origin), actor, phase, label})
	t.mu.Unlock()
}

// Events returns a copy of the rows.
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.events)
}

// String renders one line per row.
func (t *Timeline) String() string {
	var b strings.Builder
	for _, e := range t.Events() {
		fmt.Fprintf(&b, "%8.2fms  %-18s %-12s %s\n", float64(e.At.Microseconds())/1000, e.Actor, e.Phase, e.Label)
	}
	return b.String()
}

// received returns a callback recording actor's synapse-sub row for the
// record a subscriber callback sees.
func (e *ecosystem) received(actor, verb string) model.Callback {
	return func(ctx *model.CallbackCtx) error {
		e.timeline.Record(actor, "synapse-sub", verb+" "+ctx.Record.Model+"/"+ctx.Record.ID)
		return nil
	}
}

// published records actor's synapse-pub row for a written record.
func (e *ecosystem) published(actor, verb string, rec *model.Record) {
	e.timeline.Record(actor, "synapse-pub", verb+" "+rec.Model+"/"+rec.ID)
}

// created is the after-create callback of Diaspora's own models: it
// stamps the synapse-pub row at the commit, before the message is sent,
// so no row a subscriber stamps on receipt can precede it.
func (e *ecosystem) created(ctx *model.CallbackCtx) error {
	e.published("diaspora", "create", ctx.Record)
	return nil
}

// create is one of Diaspora's writes; created stamps its synapse-pub row.
func (e *ecosystem) create(ctl *core.Controller, rec *model.Record) {
	if _, err := ctl.Create(rec); err != nil {
		panic(err)
	}
}

// mailDelay is the simulated email-send cost in the mailer callbacks.
const mailDelay = 25 * time.Millisecond

// fig9User is the ecosystem's User model. Every app declares the
// interests column up front, so the decoration subscribed back from the
// analyzer has a home.
func fig9User() *model.Descriptor {
	return model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
}

func buildEcosystem(mailerWorkers, analyzerWorkers int) *ecosystem {
	e := &ecosystem{fabric: core.NewFabric(), timeline: &Timeline{origin: time.Now()}}

	// Diaspora: the social network, owner of User and Post. Its own User
	// writes are creates: an update is the analyzer's decoration arriving.
	e.diaspora = mustApp(e.fabric, "diaspora", NewMapper(PostgreSQL, storage.Profile{}), core.Config{Mode: core.Causal})
	user, post := fig9User(), socialModels()[0]
	user.Callbacks.On(model.AfterCreate, e.created)
	post.Callbacks.On(model.AfterCreate, e.created)
	user.Callbacks.On(model.AfterUpdate, e.received("diaspora", "update"))
	must(e.diaspora.Publish(user, core.PubSpec{Attrs: []string{"name"}}))
	must(e.diaspora.Publish(post, core.PubSpec{Attrs: []string{"author", "body"}}))

	// Mailer: DB-less observer notifying friends of new posts (Fig 2).
	e.mailer = mustApp(e.fabric, "mailer", nil, core.Config{Mode: core.Causal})
	mailerPost := socialModels()[0]
	mailerPost.Callbacks.On(model.AfterCreate, e.received("mailer", "create"))
	mailerPost.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		if ctx.Bootstrapping {
			return nil
		}
		time.Sleep(mailDelay) // sending the notification email
		e.timeline.Record("mailer", "app", fmt.Sprintf("emailed friends of %s about %s",
			ctx.Record.String("author"), ctx.Record.ID))
		return nil
	})
	must(e.mailer.Subscribe(mailerPost, core.SubSpec{From: "diaspora", Attrs: []string{"author", "body"}, Observer: true}))
	if mailerWorkers > 0 {
		e.mailer.StartWorkers(mailerWorkers)
	}

	// Semantic analyzer: decorates User with interests extracted from
	// post bodies (the Textalytics stand-in). Its own User writes are
	// updates: a create is a user arriving.
	e.analyzer = mustApp(e.fabric, "analyzer", NewMapper(MySQL, storage.Profile{}), core.Config{Mode: core.Causal})
	anUser, anPost := fig9User(), socialModels()[0]
	anUser.Callbacks.On(model.AfterCreate, e.received("analyzer", "create"))
	anPost.Callbacks.On(model.AfterCreate, e.received("analyzer", "create"))
	anPost.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		if ctx.Bootstrapping {
			return nil
		}
		// Extract topics and decorate the author.
		interests := extractTopics(ctx.Record.String("body"))
		if len(interests) == 0 {
			return nil
		}
		ctl := e.analyzer.NewController(nil)
		if _, err := ctl.Find("User", ctx.Record.String("author")); err != nil {
			return err
		}
		deco := model.NewRecord("User", ctx.Record.String("author"))
		deco.Set("interests", interests)
		if _, err := ctl.Update(deco); err != nil {
			return err
		}
		e.published("analyzer", "update", deco)
		return nil
	})
	must(e.analyzer.Subscribe(anUser, core.SubSpec{From: "diaspora", Attrs: []string{"name"}}))
	must(e.analyzer.Subscribe(anPost, core.SubSpec{From: "diaspora", Attrs: []string{"author", "body"}}))
	must(e.analyzer.Publish(anUser, core.PubSpec{Attrs: []string{"interests"}}))
	e.analyzer.StartWorkers(analyzerWorkers)

	// Diaspora incorporates its users' interests back (Fig 9a step 4).
	must(e.diaspora.Subscribe(user, core.SubSpec{From: "analyzer", Attrs: []string{"interests"}}))
	e.diaspora.StartWorkers(2)

	// Spree: the e-commerce recommender, subscribing to the decorated
	// User from both origins.
	e.spree = mustApp(e.fabric, "spree", NewMapper(MySQL, storage.Profile{}), core.Config{Mode: core.Causal})
	spreeUser := fig9User()
	spreeUser.Callbacks.On(model.AfterCreate, e.received("spree", "create"))
	spreeUser.Callbacks.On(model.AfterUpdate, e.received("spree", "update"))
	must(e.spree.Subscribe(spreeUser, core.SubSpec{From: "diaspora", Attrs: []string{"name"}}))
	must(e.spree.Subscribe(spreeUser, core.SubSpec{From: "analyzer", Attrs: []string{"interests"}}))
	e.spree.StartWorkers(2)

	return e
}

func (e *ecosystem) stop() {
	e.diaspora.StopWorkers()
	e.mailer.StopWorkers()
	e.analyzer.StopWorkers()
	e.spree.StopWorkers()
}

// extractTopics is the deterministic keyword extractor standing in for
// the paper's Textalytics service.
func extractTopics(body string) []string {
	known := []string{"cats", "dogs", "music", "cooking", "hiking"}
	var out []string
	lower := strings.ToLower(body)
	for _, k := range known {
		if strings.Contains(lower, k) {
			out = append(out, k)
		}
	}
	return out
}

// RunFig9a reproduces the Fig 9(a) execution sample: a user posts on
// Diaspora; the mailer and the semantic analyzer receive the post in
// parallel; the analyzer publishes the decorated User; Diaspora and
// Spree each receive the decoration. Returns the unified timeline.
func RunFig9a() (*Timeline, error) {
	e := buildEcosystem(2, 2)
	defer e.stop()

	ctl := e.diaspora.NewController(e.diaspora.NewSession("User", "1"))
	u := model.NewRecord("User", "1")
	u.Set("name", "alice")
	e.create(ctl, u)
	// Let the user propagate before the post references it.
	if err := waitConverged(5*time.Second, e.diaspora, e.analyzer); err != nil {
		return nil, err
	}

	e.timeline.Record("diaspora", "app", "user 1 posts a message")
	p := model.NewRecord("Post", "p1")
	p.Set("author", "1")
	p.Set("body", "I love cats and hiking")
	e.create(ctl, p)

	// Wait for the post to reach the mailer and the analyzer — whose
	// callback publishes the decoration before the post is acked — and
	// then for the decoration to land everywhere.
	if err := waitConverged(5*time.Second, e.diaspora, e.mailer, e.analyzer); err != nil {
		return nil, err
	}
	return e.timeline, waitConverged(5*time.Second, e.analyzer, e.diaspora, e.spree)
}

// RunFig9b reproduces the Fig 9(b) execution sample: two users post two
// messages each while the mailer is disconnected; when the mailer comes
// back online, it processes the two users' messages in parallel but
// each user's posts in serial order, enforcing causality.
func RunFig9b() (*Timeline, error) {
	e := buildEcosystem(0, 2) // mailer starts with no workers: offline
	defer e.stop()

	seed := e.diaspora.NewController(nil)
	for _, id := range []string{"1", "2"} {
		u := model.NewRecord("User", id)
		u.Set("name", "user"+id)
		e.create(seed, u)
	}

	// Both users post twice while the mailer is offline.
	for round := 1; round <= 2; round++ {
		for _, id := range []string{"1", "2"} {
			ctl := e.diaspora.NewController(e.diaspora.NewSession("User", id))
			p := model.NewRecord("Post", fmt.Sprintf("u%s-post%d", id, round))
			p.Set("author", id)
			p.Set("body", "dogs")
			e.timeline.Record("diaspora", "app", fmt.Sprintf("user %s posts #%d", id, round))
			e.create(ctl, p)
		}
	}

	e.timeline.Record("mailer", "app", "mailer reconnects")
	e.mailer.StartWorkers(4)
	// A drained mailer queue is four sent emails: the callback sends
	// before the delivery is acked.
	return e.timeline, waitConverged(10*time.Second, e.diaspora, e.mailer)
}

const (
	fig9aHeader = `Fig 9(a): execution sample — user posts on Diaspora; mailer and
semantic analyzer receive in parallel; Diaspora and Spree receive
the decorated User.
`
	fig9bHeader = `Fig 9(b): execution with subscriber disconnection — two users post
while the mailer is offline; on reconnection it processes the users
in parallel but each user's posts in serial (causal) order.
`
)

// timeline renders a Fig 9 execution sample under its caption.
func timeline(header string) func(doc any) string {
	return func(doc any) string { return header + doc.(*Timeline).String() }
}
