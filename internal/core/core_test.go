package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/documentorm"
	"synapse/internal/orm/searchorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/storage/searchdb"
	"synapse/internal/wire"
)

// --- test helpers -----------------------------------------------------

func userDesc() *model.Descriptor {
	return model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "email", Type: model.String},
		model.Field{Name: "likes", Type: model.Int},
	)
}

func postDesc() *model.Descriptor {
	return model.NewDescriptor("Post",
		model.Field{Name: "author", Type: model.Ref, RefModel: "User"},
		model.Field{Name: "body", Type: model.String},
	)
}

func commentDesc() *model.Descriptor {
	return model.NewDescriptor("Comment",
		model.Field{Name: "post", Type: model.Ref, RefModel: "Post"},
		model.Field{Name: "author", Type: model.Ref, RefModel: "User"},
		model.Field{Name: "body", Type: model.String},
	)
}

func newDocApp(t *testing.T, f *Fabric, name string, cfg Config) (*App, *documentorm.Mapper) {
	t.Helper()
	m := documentorm.New(docdb.New(docdb.MongoDB))
	a, err := NewApp(f, name, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func newSQLApp(t *testing.T, f *Fabric, name string, cfg Config) (*App, *activerecord.Mapper) {
	t.Helper()
	m := activerecord.New(reldb.New(reldb.Postgres))
	a, err := NewApp(f, name, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func mustPublish(t *testing.T, a *App, d *model.Descriptor, attrs ...string) {
	t.Helper()
	if err := a.Publish(d, PubSpec{Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
}

func mustSubscribe(t *testing.T, a *App, d *model.Descriptor, spec SubSpec) {
	t.Helper()
	if err := a.Subscribe(d, spec); err != nil {
		t.Fatal(err)
	}
}

// payloadTap binds a raw queue to an exchange and returns a function
// that drains the payloads published so far, as the bus carries them.
func payloadTap(t *testing.T, f *Fabric, exchange string) func() [][]byte {
	t.Helper()
	name := "tap-" + exchange
	q, _ := f.Broker.DeclareQueue(name, 0)
	if err := f.Broker.Bind(name, exchange); err != nil {
		t.Fatal(err)
	}
	return func() [][]byte {
		var out [][]byte
		for {
			d, ok, err := q.TryGet()
			if err != nil || !ok {
				return out
			}
			out = append(out, d.Payload)
			_ = q.Ack(d.Tag)
		}
	}
}

// depVersions keys a message's dependencies by token.
func depVersions(m *wire.Message) map[wire.Token]uint64 {
	out := make(map[wire.Token]uint64, len(m.Deps))
	for _, d := range m.Deps {
		out[d.Token] = d.Version
	}
	return out
}

// tap is payloadTap, decoded.
func tap(t *testing.T, f *Fabric, exchange string) func() []*wire.Message {
	t.Helper()
	payloads := payloadTap(t, f, exchange)
	return func() []*wire.Message {
		var out []*wire.Message
		for _, payload := range payloads() {
			m, err := wire.Unmarshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		return out
	}
}

// consume decodes one payload the way a worker does and applies it
// through ProcessMessage; a poison payload is dropped.
func (a *App) consume(payload []byte) error {
	msg, err := wire.UnmarshalProjected(payload, a.resolve)
	if err != nil {
		return nil
	}
	err = a.ProcessMessage(msg)
	wire.ReleaseMessage(msg)
	if errors.Is(err, errStaleGeneration) {
		return nil
	}
	return err
}

// drain synchronously processes everything in the app's queue.
func drain(t *testing.T, a *App) {
	t.Helper()
	q := a.Queue()
	if q == nil {
		t.Fatal("app has no queue")
	}
	for {
		d, ok, err := q.TryGet()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		if perr := a.consume(d.Payload); perr != nil {
			t.Fatalf("consume: %v", perr)
		}
		_ = q.Ack(d.Tag)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// --- basic integration (Fig 1 / Fig 4) --------------------------------

func TestBasicPubSubDocToSQL(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub1", Config{})
	sub, subMapper := newSQLApp(t, f, "sub1a", Config{})

	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub1", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "alice")
	rec.Set("email", "hidden@example.com") // not published
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)

	got, err := subMapper.Find("User", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if got.String("name") != "alice" {
		t.Errorf("replicated name = %q", got.String("name"))
	}
	if got.Has("email") {
		t.Error("unpublished attribute leaked to subscriber")
	}
}

func TestUpdateAndDestroyReplicate(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, subMapper := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name", "likes")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "alice")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	patch := model.NewRecord("User", "u1")
	patch.Set("likes", 5)
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, err := subMapper.Find("User", "u1")
	if err != nil || got.Int("likes") != 5 || got.String("name") != "alice" {
		t.Fatalf("after update: %+v, %v", got, err)
	}

	if err := ctl.Destroy("User", "u1"); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	if _, err := subMapper.Find("User", "u1"); err == nil {
		t.Fatal("destroy did not replicate")
	}
}

// destroyAfterRacingUpdate creates User u1, then destroys it while race
// (installed by the caller on the publisher's write path) runs an update
// of u1 from another controller, and returns the name the destroy
// message published. The update commits and is published first, so a
// DB-less observer ends on the destroy's attributes: they must be the
// updated ones.
func destroyAfterRacingUpdate(t *testing.T, pub *App, f *Fabric, install func(race func())) any {
	t.Helper()
	msgs := tap(t, f, "pub")
	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "before")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	raced := false
	install(func() {
		if raced {
			return
		}
		raced = true
		patch := model.NewRecord("User", "u1")
		patch.Set("name", "after")
		if _, err := pub.NewController(nil).Update(patch); err != nil {
			t.Errorf("racing update: %v", err)
		}
	})
	if err := ctl.Destroy("User", "u1"); err != nil {
		t.Fatal(err)
	}
	if !raced {
		t.Fatal("the racing update never ran")
	}
	var verbs []wire.OpKind
	var last any
	for _, m := range msgs() {
		verbs = append(verbs, m.Operations[0].Operation)
		last = m.Operations[0].Attributes["name"]
	}
	if want := []wire.OpKind{wire.OpCreate, wire.OpUpdate, wire.OpDestroy}; fmt.Sprint(verbs) != fmt.Sprint(want) {
		t.Fatalf("published %v, want %v", verbs, want)
	}
	return last
}

// TestDestroyPublishesStateAfterRacingUpdate2PC: on the 2PC path, a
// before-destroy callback runs after the destroy is staged and before its
// row lock is taken; an update it runs commits first, and the destroy
// publishes the updated attributes.
func TestDestroyPublishesStateAfterRacingUpdate2PC(t *testing.T) {
	f := NewFabric()
	pub, _ := newSQLApp(t, f, "pub", Config{Mode: Causal})
	d := userDesc()
	mustPublish(t, pub, d, "name")
	got := destroyAfterRacingUpdate(t, pub, f, func(race func()) {
		d.Callbacks.On(model.BeforeDestroy, func(*model.CallbackCtx) error { race(); return nil })
	})
	if got != "after" {
		t.Errorf("destroy published name %v, want the racing update's %q", got, "after")
	}
}

// TestDestroyPublishesStateAfterRacingUpdateDirect: on the direct path
// (MongoDB), an update that runs as the destroy moves from staged to
// prepared, before its plan locks the object, commits first, and the
// destroy publishes the updated attributes.
func TestDestroyPublishesStateAfterRacingUpdateDirect(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	got := destroyAfterRacingUpdate(t, pub, f, func(race func()) {
		watchPubs(pub, func(p *publication, from, to pubState) {
			if from == pubStaged && to == pubPrepared && p.staged[0].verb == wire.OpDestroy {
				race()
			}
		})
	})
	if got != "after" {
		t.Errorf("destroy published name %v, want the racing update's %q", got, "after")
	}
}

func TestMultipleSubscribersOneOfEachEngine(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub1", Config{})
	mustPublish(t, pub, userDesc(), "name")

	subSQL, sqlMapper := newSQLApp(t, f, "sub-sql", Config{})
	mustSubscribe(t, subSQL, userDesc(), SubSpec{From: "pub1", Attrs: []string{"name"}})

	es := searchorm.New(searchdb.New())
	subES, err := NewApp(f, "sub-es", es, Config{})
	if err != nil {
		t.Fatal(err)
	}
	esUser := userDesc()
	mustSubscribe(t, subES, esUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	es.SetAnalyzer("User", "name", searchdb.SimpleAnalyzer)

	subDoc, docMapper := newDocApp(t, f, "sub-doc", Config{})
	mustSubscribe(t, subDoc, userDesc(), SubSpec{From: "pub1", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	for i := 0; i < 5; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", fmt.Sprintf("User Number %d", i))
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, subSQL)
	drain(t, subES)
	drain(t, subDoc)

	if n := sqlMapper.Len("User"); n != 5 {
		t.Errorf("SQL subscriber has %d users", n)
	}
	if n := docMapper.Len("User"); n != 5 {
		t.Errorf("doc subscriber has %d users", n)
	}
	recs, err := es.Search("User", searchdb.Query{Match: &searchdb.MatchQuery{Field: "name", Text: "number 3"}})
	if err != nil || len(recs) != 1 || recs[0].ID != "u3" {
		t.Errorf("search subscriber query = %v, %v", recs, err)
	}
}

func TestWorkersDeliverAsynchronously(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	sub.StartWorkers(4)
	defer sub.StopWorkers()

	ctl := pub.NewController(nil)
	for i := 0; i < 50; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("name", "x")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return subMapper.Len("User") == 50 })
}

// --- static checks (§4.5) ---------------------------------------------

func TestStaticSubscriptionChecks(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")

	// Unpublished model.
	err := sub.Subscribe(postDesc(), SubSpec{From: "pub", Attrs: []string{"body"}})
	if !errors.Is(err, ErrUnpublished) {
		t.Errorf("subscribe to unpublished model = %v", err)
	}
	// Unpublished attribute.
	err = sub.Subscribe(userDesc(), SubSpec{From: "pub", Attrs: []string{"email"}})
	if !errors.Is(err, ErrUnpublished) {
		t.Errorf("subscribe to unpublished attribute = %v", err)
	}
	// Unknown origin app.
	err = sub.Subscribe(userDesc(), SubSpec{From: "ghost", Attrs: []string{"name"}})
	if !errors.Is(err, ErrUnpublished) {
		t.Errorf("subscribe to unknown origin = %v", err)
	}
	// Valid subscription passes.
	if err := sub.Subscribe(userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}}); err != nil {
		t.Errorf("valid subscribe = %v", err)
	}
}

func TestModeCannotExceedPublisher(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	err := sub.Subscribe(userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Global})
	if !errors.Is(err, ErrModeTooStrong) {
		t.Errorf("global sub on causal pub = %v", err)
	}
	// Weak subscription of a causal publisher is fine.
	if err := sub.Subscribe(userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Weak}); err != nil {
		t.Errorf("weak sub on causal pub = %v", err)
	}
}

func TestOnlyOwnerCreatesAndDeletes(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	d := userDesc()
	d.AddField(model.Field{Name: "interests", Type: model.StringList})
	mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
	// Decorate so the subscriber publishes something for the model.
	if err := sub.Publish(d, PubSpec{Attrs: []string{"interests"}}); err != nil {
		t.Fatal(err)
	}

	ctl := sub.NewController(nil)
	rec := model.NewRecord("User", "u9")
	rec.Set("interests", []string{"x"})
	if _, err := ctl.Create(rec); !errors.Is(err, ErrNotOwner) {
		t.Errorf("decorator Create = %v", err)
	}
	if err := ctl.Destroy("User", "u9"); !errors.Is(err, ErrNotOwner) {
		t.Errorf("decorator Destroy = %v", err)
	}
}

func TestDecoratorCannotTouchSubscribedAttrs(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	dec, _ := newDocApp(t, f, "dec", Config{})
	mustPublish(t, pub, userDesc(), "name")
	d := userDesc()
	d.AddField(model.Field{Name: "interests", Type: model.StringList})
	mustSubscribe(t, dec, d, SubSpec{From: "pub", Attrs: []string{"name"}})

	// Republishing a subscribed attribute is rejected.
	if err := dec.Publish(d, PubSpec{Attrs: []string{"name"}}); !errors.Is(err, ErrDecoratorAttr) {
		t.Errorf("republish subscribed attr = %v", err)
	}
	if err := dec.Publish(d, PubSpec{Attrs: []string{"interests"}}); err != nil {
		t.Fatal(err)
	}
	// Updating a subscribed attribute is rejected.
	ctl := dec.NewController(nil)
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "hacked")
	if _, err := ctl.Update(patch); !errors.Is(err, ErrDecoratorAttr) {
		t.Errorf("decorator update of subscribed attr = %v", err)
	}
}

func TestPublishUnknownAttrRejected(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	err := pub.Publish(userDesc(), PubSpec{Attrs: []string{"nope"}})
	if err == nil {
		t.Fatal("published nonexistent attribute")
	}
}

// --- message format ----------------------------------------------------

func TestMessageCarriesOnlyPublishedAttrs(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "alice")
	rec.Set("email", "secret@example.com")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	if len(got) != 1 {
		t.Fatalf("published %d messages", len(got))
	}
	op := got[0].Operations[0]
	if op.Operation != wire.OpCreate || op.ID != "u1" {
		t.Errorf("op = %+v", op)
	}
	if _, leaked := op.Attributes["email"]; leaked {
		t.Error("unpublished attribute in message")
	}
	if op.Attributes["name"] != "alice" {
		t.Errorf("attrs = %+v", op.Attributes)
	}
	if got[0].App != "pub" || got[0].Generation != 0 || got[0].Seq != 1 {
		t.Errorf("envelope = %+v", got[0])
	}
}

func TestTransactionSingleMessage(t *testing.T) {
	f := NewFabric()
	m := activerecord.New(reldb.New(reldb.Postgres))
	pub, err := NewApp(f, "pub", m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body", "author")
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	err = ctl.Transaction(func(tx *Txn) error {
		u := model.NewRecord("User", "u1")
		u.Set("name", "alice")
		if err := tx.Create(u); err != nil {
			return err
		}
		p := model.NewRecord("Post", "p1")
		p.Set("body", "hello")
		p.Set("author", "u1")
		return tx.Create(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := msgs()
	if len(got) != 1 {
		t.Fatalf("transaction published %d messages, want 1", len(got))
	}
	if len(got[0].Operations) != 2 {
		t.Fatalf("message has %d operations, want 2", len(got[0].Operations))
	}
	// Both rows committed locally.
	if _, err := m.Find("User", "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Find("Post", "p1"); err != nil {
		t.Fatal(err)
	}
}

func TestFailedTransactionPublishesNothing(t *testing.T) {
	f := NewFabric()
	m := activerecord.New(reldb.New(reldb.Postgres))
	pub, err := NewApp(f, "pub", m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	u := model.NewRecord("User", "u1")
	u.Set("name", "a")
	if _, err := ctl.Create(u); err != nil {
		t.Fatal(err)
	}
	_ = msgs() // clear

	err = ctl.Transaction(func(tx *Txn) error {
		dup := model.NewRecord("User", "u1") // duplicate -> prepare fails
		dup.Set("name", "b")
		return tx.Create(dup)
	})
	if err == nil {
		t.Fatal("conflicting transaction committed")
	}
	if got := msgs(); len(got) != 0 {
		t.Fatalf("failed transaction published %d messages", len(got))
	}
}

// --- ephemerals and observers (§3.1) ------------------------------------

func TestEphemeralToObserver(t *testing.T) {
	f := NewFabric()
	// DB-less publisher.
	pub, err := NewApp(f, "frontend", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clickDesc := model.NewDescriptor("Click",
		model.Field{Name: "target", Type: model.String},
	)
	if err := pub.Publish(clickDesc, PubSpec{Attrs: []string{"target"}, Ephemeral: true}); err != nil {
		t.Fatal(err)
	}

	// DB-less subscriber counting clicks via callbacks.
	obs, err := NewApp(f, "analytics", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	obsDesc := model.NewDescriptor("Click",
		model.Field{Name: "target", Type: model.String},
	)
	var seen []string
	obsDesc.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		seen = append(seen, ctx.Record.String("target"))
		return nil
	})
	if err := obs.Subscribe(obsDesc, SubSpec{From: "frontend", Attrs: []string{"target"}, Observer: true}); err != nil {
		t.Fatal(err)
	}

	ctl := pub.NewController(nil)
	for i := 0; i < 3; i++ {
		rec := model.NewRecord("Click", fmt.Sprintf("c%d", i))
		rec.Set("target", fmt.Sprintf("button-%d", i))
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, obs)
	if len(seen) != 3 || seen[0] != "button-0" {
		t.Errorf("observed clicks = %v", seen)
	}
}

func TestPersistedPublishRequiresDB(t *testing.T) {
	f := NewFabric()
	pub, err := NewApp(f, "dbless", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(userDesc(), PubSpec{Attrs: []string{"name"}}); err == nil {
		t.Fatal("persisted publish allowed without a database")
	}
}

// --- virtual attributes (Fig 7) -----------------------------------------

func TestVirtualAttributeSchemaMapping(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub3", Config{})
	pubUser := model.NewDescriptor("User",
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustPublish(t, pub, pubUser, "interests")

	sub, subMapper := newSQLApp(t, f, "sub3b", Config{})
	// SQL subscriber: a virtual setter splits the array into a join
	// table of Interest rows (the Sub3b pattern of Fig 7).
	interestDesc := model.NewDescriptor("Interest",
		model.Field{Name: "user", Type: model.Ref, RefModel: "User", Indexed: true},
		model.Field{Name: "tag", Type: model.String},
	)
	if err := subMapper.Register(interestDesc); err != nil {
		t.Fatal(err)
	}
	subUser := model.NewDescriptor("User")
	subUser.DefineVirtual(&model.VirtualAttr{
		Name: "interests",
		Set: func(r *model.Record, v any) error {
			tags := model.NewRecord("tmp", "tmp")
			tags.Set("t", v)
			for i, tag := range tags.Strings("t") {
				row := model.NewRecord("Interest", fmt.Sprintf("%s-%d", r.ID, i))
				row.Set("user", r.ID)
				row.Set("tag", tag)
				if err := subMapper.Save(row); err != nil {
					return err
				}
			}
			return nil
		},
	})
	mustSubscribe(t, sub, subUser, SubSpec{From: "pub3", Attrs: []string{"interests"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "100")
	rec.Set("interests", []string{"cats", "dogs"})
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)

	if n := subMapper.Len("Interest"); n != 2 {
		t.Fatalf("interest rows = %d", n)
	}
	// Queries by interest now work through the join table.
	rows, err := subMapper.DB().Select("interests")
	if err != nil || len(rows) != 2 {
		t.Fatalf("join table rows = %v, %v", rows, err)
	}
}

func TestVirtualAttributePublisherGetter(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	d := model.NewDescriptor("User",
		model.Field{Name: "first", Type: model.String},
		model.Field{Name: "last", Type: model.String},
	)
	d.DefineVirtual(&model.VirtualAttr{
		Name: "full_name",
		Get:  func(r *model.Record) any { return r.String("first") + " " + r.String("last") },
	})
	mustPublish(t, pub, d, "full_name")
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("first", "Ada")
	rec.Set("last", "Lovelace")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	if got[0].Operations[0].Attributes["full_name"] != "Ada Lovelace" {
		t.Errorf("virtual getter output = %+v", got[0].Operations[0].Attributes)
	}
}

// --- polymorphic models (§4.1) -------------------------------------------

func TestPolymorphicConsumption(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	base := model.NewDescriptor("Content", model.Field{Name: "body", Type: model.String})
	admin := model.NewDescriptor("AdminPost", model.Field{Name: "level", Type: model.Int})
	admin.Parent = base
	mustPublish(t, pub, admin, "body", "level")

	// Subscriber only knows the base model; it consumes AdminPost
	// through the inheritance chain in the message.
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	subBase := model.NewDescriptor("Content", model.Field{Name: "body", Type: model.String})
	// Content is not published directly; subscribe checks the fabric
	// registry, so publish the base chain attr under the derived name
	// only. Subscribers of the base model must declare the base name.
	if err := pub.Publish(base, PubSpec{Attrs: []string{"body"}}); err != nil {
		t.Fatal(err)
	}
	mustSubscribe(t, sub, subBase, SubSpec{From: "pub", Attrs: []string{"body"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("AdminPost", "a1")
	rec.Set("body", "hello")
	rec.Set("level", 3)
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, err := subMapper.Find("Content", "a1")
	if err != nil {
		t.Fatal(err)
	}
	if got.String("body") != "hello" {
		t.Errorf("polymorphic record = %+v", got.Attrs)
	}
	if got.Has("level") {
		t.Error("unsubscribed derived attribute leaked")
	}
}
