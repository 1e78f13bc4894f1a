// Quickstart: the paper's Fig 1 / Fig 2 / Fig 4 in one runnable program.
//
// A MongoDB-backed publisher shares its User model with three
// subscribers on three different engines — a SQL database, a search
// engine, and another document store — plus a DB-less mailer that
// observes user registrations and sends welcome emails (skipping them
// while bootstrapping, the Fig 2 pattern).
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"

	"synapse"
	"synapse/examples/internal/example"
	"synapse/internal/storage/searchdb"
)

func main() { example.Main(run) }

func run(w io.Writer) (err error) {
	defer example.Recover(&err)
	fabric := synapse.NewFabric()

	// ------------------------------------------------------------------
	// Publisher (Pub1): runs on MongoDB, publishes User{name, email}.
	// ------------------------------------------------------------------
	pub, err := synapse.NewApp(fabric, "pub1",
		synapse.NewDocumentMapper(synapse.MongoDB), synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	pubUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("email", synapse.String),
		synapse.F("password_hash", synapse.String), // never published
	)
	example.Check(pub.Publish(pubUser, synapse.PubSpec{Attrs: []string{"name", "email"}}))

	// ------------------------------------------------------------------
	// Subscriber 1a: any SQL DB (Fig 4).
	// ------------------------------------------------------------------
	sqlMapper := synapse.NewSQLMapper(synapse.Postgres)
	subSQL, err := synapse.NewApp(fabric, "sub1a", sqlMapper, synapse.Config{})
	example.Check(err)
	sqlUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("email", synapse.String),
	)
	example.Check(subSQL.Subscribe(sqlUser, synapse.SubSpec{From: "pub1", Attrs: []string{"name", "email"}}))
	subSQL.StartWorkers(2)
	defer subSQL.StopWorkers()

	// ------------------------------------------------------------------
	// Subscriber 1b: Elasticsearch with an analyzed name field (Fig 4).
	// ------------------------------------------------------------------
	esMapper := synapse.NewSearchMapper()
	subES, err := synapse.NewApp(fabric, "sub1b", esMapper, synapse.Config{})
	example.Check(err)
	esUser := synapse.NewModel("User", synapse.F("name", synapse.String))
	example.Check(subES.Subscribe(esUser, synapse.SubSpec{From: "pub1", Attrs: []string{"name"}}))
	esMapper.SetAnalyzer("User", "name", searchdb.SimpleAnalyzer)
	subES.StartWorkers(2)
	defer subES.StopWorkers()

	// ------------------------------------------------------------------
	// Subscriber 1c: another MongoDB (Fig 4).
	// ------------------------------------------------------------------
	docMapper := synapse.NewDocumentMapper(synapse.MongoDB)
	subDoc, err := synapse.NewApp(fabric, "sub1c", docMapper, synapse.Config{})
	example.Check(err)
	docUser := synapse.NewModel("User", synapse.F("name", synapse.String))
	example.Check(subDoc.Subscribe(docUser, synapse.SubSpec{From: "pub1", Attrs: []string{"name"}}))
	subDoc.StartWorkers(2)
	defer subDoc.StopWorkers()

	// ------------------------------------------------------------------
	// Mailer: DB-less observer with the Bootstrap? guard (Fig 2).
	// ------------------------------------------------------------------
	mailer, err := synapse.NewApp(fabric, "mailer", nil, synapse.Config{})
	example.Check(err)
	mailUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("email", synapse.String),
	)
	mailUser.Callbacks.On(synapse.AfterCreate, func(ctx *synapse.CallbackCtx) error {
		if ctx.Bootstrapping {
			return nil // don't re-welcome existing users while catching up
		}
		fmt.Fprintf(w, "[mailer]  welcome email -> %s\n", ctx.Record.String("email"))
		return nil
	})
	example.Check(mailer.Subscribe(mailUser, synapse.SubSpec{
		From: "pub1", Attrs: []string{"name", "email"}, Observer: true,
	}))
	mailer.StartWorkers(1)
	defer mailer.StopWorkers()

	// ------------------------------------------------------------------
	// The publisher's controllers create and update users; Synapse
	// replicates them everywhere.
	// ------------------------------------------------------------------
	people := []struct{ id, name, email string }{
		{"1", "Ada Lovelace", "ada@example.com"},
		{"2", "Grace Hopper", "grace@example.com"},
		{"3", "Barbara Liskov", "barbara@example.com"},
	}
	for _, p := range people {
		session := pub.NewSession("User", p.id)
		ctl := pub.NewController(session)
		rec := synapse.NewRecord("User", p.id)
		rec.Set("name", p.name)
		rec.Set("email", p.email)
		rec.Set("password_hash", "s3cr3t") // stays local
		_, err := ctl.Create(rec)
		example.Check(err)
		fmt.Fprintf(w, "[pub1]    created User/%s (%s)\n", p.id, p.name)
	}

	// An update flows too.
	ctl := pub.NewController(pub.NewSession("User", "2"))
	patch := synapse.NewRecord("User", "2")
	patch.Set("name", "Rear Admiral Grace Hopper")
	_, err = ctl.Update(patch)
	example.Check(err)
	fmt.Fprintln(w, "[pub1]    updated User/2")

	example.WaitUntil(func() bool {
		rec, err := sqlMapper.Find("User", "2")
		return err == nil && rec.String("name") == patch.String("name") &&
			sqlMapper.Len("User") == 3 && docMapper.Len("User") == 3
	})

	// Each subscriber now queries its own engine natively.
	rec, err := sqlMapper.Find("User", "2")
	example.Check(err)
	fmt.Fprintf(w, "[sub1a]   SQL row User/2 = %q <%s>\n", rec.String("name"), rec.String("email"))
	if rec.Has("password_hash") {
		return errors.New("unpublished attribute leaked")
	}

	example.WaitUntil(func() bool {
		hits, err := esMapper.Search("User", searchdb.Query{
			Match: &searchdb.MatchQuery{Field: "name", Text: "grace"},
		})
		return err == nil && len(hits) == 1
	})
	hits, err := esMapper.Search("User", searchdb.Query{
		Match: &searchdb.MatchQuery{Field: "name", Text: "grace"},
	})
	example.Check(err)
	fmt.Fprintf(w, "[sub1b]   search \"grace\" -> User/%s\n", hits[0].ID)

	fmt.Fprintln(w, "quickstart: OK")
	return nil
}
