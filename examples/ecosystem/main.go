// Ecosystem: the paper's §5.2 social product recommender (Fig 11).
//
// Diaspora (a social network, PostgreSQL) and Discourse (a discussion
// board, PostgreSQL) publish their posts. A semantic analyzer (MySQL)
// subscribes to both, extracts topics of interest, and decorates the
// User model with them. Spree (an e-commerce app, MySQL) subscribes to
// the decorated User and recommends products matching the user's
// interests. A DB-less mailer observes Diaspora posts.
//
//	go run ./examples/ecosystem
package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"

	"synapse"
	"synapse/examples/internal/example"
)

// extractTopics is the stand-in for the paper's Textalytics service.
func extractTopics(body string) []string {
	known := []string{"coffee", "keyboards", "hiking", "cooking", "music"}
	var out []string
	for _, k := range known {
		if strings.Contains(strings.ToLower(body), k) {
			out = append(out, k)
		}
	}
	return out
}

func main() { example.Main(run) }

func run(w io.Writer) (err error) {
	defer example.Recover(&err)
	fabric := synapse.NewFabric()

	// ------------------------------------------------------------------
	// Diaspora: owns User and Post.
	// ------------------------------------------------------------------
	diasporaMapper := synapse.NewSQLMapper(synapse.Postgres)
	diaspora, err := synapse.NewApp(fabric, "diaspora", diasporaMapper, synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	dUser := synapse.NewModel("User", synapse.F("name", synapse.String))
	dPost := synapse.NewModel("Post",
		synapse.F("author", synapse.Ref),
		synapse.F("body", synapse.String),
	)
	example.Check(diaspora.Publish(dUser, synapse.PubSpec{Attrs: []string{"name"}}))
	example.Check(diaspora.Publish(dPost, synapse.PubSpec{Attrs: []string{"author", "body"}}))

	// ------------------------------------------------------------------
	// Discourse: owns Topic.
	// ------------------------------------------------------------------
	discourseMapper := synapse.NewSQLMapper(synapse.Postgres)
	discourse, err := synapse.NewApp(fabric, "discourse", discourseMapper, synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	topic := synapse.NewModel("Topic",
		synapse.F("author", synapse.Ref),
		synapse.F("title", synapse.String),
	)
	example.Check(discourse.Publish(topic, synapse.PubSpec{Attrs: []string{"author", "title"}}))

	// ------------------------------------------------------------------
	// Semantic analyzer: subscribes to posts and topics from both apps,
	// decorates User with interests.
	// ------------------------------------------------------------------
	analyzerMapper := synapse.NewSQLMapper(synapse.MySQL)
	analyzer, err := synapse.NewApp(fabric, "analyzer", analyzerMapper, synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	aUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("interests", synapse.StringList),
	)
	// decorate is a read-merge-write of the user's interests. The
	// analyzer's two workers can run the Post and the Topic callback at
	// once, and two merges that read the same interests would each write
	// back only their own topics, so decorating serializes them.
	var decorating sync.Mutex
	decorate := func(author, text string) error {
		topics := extractTopics(text)
		if len(topics) == 0 {
			return nil
		}
		decorating.Lock()
		defer decorating.Unlock()
		ctl := analyzer.NewController(nil)
		cur, err := ctl.Find("User", author)
		if err != nil {
			return err
		}
		merged := map[string]bool{}
		for _, t := range cur.Strings("interests") {
			merged[t] = true
		}
		for _, t := range topics {
			merged[t] = true
		}
		deco := synapse.NewRecord("User", author)
		deco.Set("interests", slices.Sorted(maps.Keys(merged)))
		_, err = ctl.Update(deco)
		return err
	}
	aPost := synapse.NewModel("Post",
		synapse.F("author", synapse.Ref),
		synapse.F("body", synapse.String),
	)
	aPost.Callbacks.On(synapse.AfterCreate, func(ctx *synapse.CallbackCtx) error {
		if ctx.Bootstrapping {
			return nil
		}
		return decorate(ctx.Record.String("author"), ctx.Record.String("body"))
	})
	aTopic := synapse.NewModel("Topic",
		synapse.F("author", synapse.Ref),
		synapse.F("title", synapse.String),
	)
	aTopic.Callbacks.On(synapse.AfterCreate, func(ctx *synapse.CallbackCtx) error {
		if ctx.Bootstrapping {
			return nil
		}
		return decorate(ctx.Record.String("author"), ctx.Record.String("title"))
	})
	example.Check(analyzer.Subscribe(aUser, synapse.SubSpec{From: "diaspora", Attrs: []string{"name"}}))
	example.Check(analyzer.Subscribe(aPost, synapse.SubSpec{From: "diaspora", Attrs: []string{"author", "body"}}))
	example.Check(analyzer.Subscribe(aTopic, synapse.SubSpec{From: "discourse", Attrs: []string{"author", "title"}}))
	example.Check(analyzer.Publish(aUser, synapse.PubSpec{Attrs: []string{"interests"}}))
	analyzer.StartWorkers(2)
	defer analyzer.StopWorkers()

	// ------------------------------------------------------------------
	// Mailer: DB-less observer of Diaspora posts (causal mode: no
	// inconsistent notifications).
	// ------------------------------------------------------------------
	mailer, err := synapse.NewApp(fabric, "mailer", nil, synapse.Config{})
	example.Check(err)
	mPost := synapse.NewModel("Post",
		synapse.F("author", synapse.Ref),
		synapse.F("body", synapse.String),
	)
	mPost.Callbacks.On(synapse.AfterCreate, func(ctx *synapse.CallbackCtx) error {
		if !ctx.Bootstrapping {
			fmt.Fprintf(w, "[mailer]    notifying friends of %s\n", ctx.Record.String("author"))
		}
		return nil
	})
	example.Check(mailer.Subscribe(mPost, synapse.SubSpec{
		From: "diaspora", Attrs: []string{"author", "body"}, Observer: true,
	}))
	mailer.StartWorkers(1)
	defer mailer.StopWorkers()

	// ------------------------------------------------------------------
	// Spree: subscribes to the decorated User (both origins) and runs a
	// keyword recommender over its product catalog.
	// ------------------------------------------------------------------
	spreeMapper := synapse.NewSQLMapper(synapse.MySQL)
	spree, err := synapse.NewApp(fabric, "spree", spreeMapper, synapse.Config{})
	example.Check(err)
	sUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("interests", synapse.StringList),
	)
	example.Check(spree.Subscribe(sUser, synapse.SubSpec{From: "diaspora", Attrs: []string{"name"}}))
	example.Check(spree.Subscribe(sUser, synapse.SubSpec{From: "analyzer", Attrs: []string{"interests"}}))
	product := synapse.NewModel("Product",
		synapse.F("title", synapse.String),
		synapse.F("description", synapse.String),
	)
	example.Check(spreeMapper.Register(product))
	spree.StartWorkers(2)
	defer spree.StopWorkers()

	// Spree's local product catalog.
	catalog := map[string][2]string{
		"prod-1": {"Artisan espresso machine", "great coffee at home"},
		"prod-2": {"Clacky mechanical keyboard", "keyboards for programmers"},
		"prod-3": {"Ultralight tent", "hiking and backpacking"},
		"prod-4": {"Cast-iron skillet", "cooking essential"},
	}
	for id, p := range catalog {
		rec := synapse.NewRecord("Product", id)
		rec.Set("title", p[0])
		rec.Set("description", p[1])
		example.Check(spreeMapper.Save(rec))
	}

	// ------------------------------------------------------------------
	// Users act across the ecosystem.
	// ------------------------------------------------------------------
	dctl := diaspora.NewController(diaspora.NewSession("User", "alice"))
	u := synapse.NewRecord("User", "alice")
	u.Set("name", "Alice")
	_, err = dctl.Create(u)
	example.Check(err)

	// Wait for the user to reach the analyzer before posts reference it.
	example.WaitUntil(func() bool {
		_, err := analyzerMapper.Find("User", "alice")
		return err == nil
	})

	post := synapse.NewRecord("Post", "p1")
	post.Set("author", "alice")
	post.Set("body", "Nothing beats fresh coffee before a hiking trip!")
	_, err = dctl.Create(post)
	example.Check(err)
	fmt.Fprintln(w, "[diaspora]  alice posted about coffee and hiking")

	tctl := discourse.NewController(discourse.NewSession("User", "alice"))
	tp := synapse.NewRecord("Topic", "t1")
	tp.Set("author", "alice")
	tp.Set("title", "Which mechanical keyboards do you recommend?")
	_, err = tctl.Create(tp)
	example.Check(err)
	fmt.Fprintln(w, "[discourse] alice asked about keyboards")

	// Wait until the decoration reaches Spree with all three interests.
	example.WaitUntil(func() bool {
		rec, err := spreeMapper.Find("User", "alice")
		return err == nil && len(rec.Strings("interests")) >= 3
	})

	// ------------------------------------------------------------------
	// Spree's recommender: keyword match interests against descriptions.
	// ------------------------------------------------------------------
	alice, err := spreeMapper.Find("User", "alice")
	example.Check(err)
	fmt.Fprintf(w, "[spree]     alice's interests: %v\n", alice.Strings("interests"))
	var recommendations []string
	products, err := spreeMapper.DB().Select("products")
	example.Check(err)
	for _, row := range products {
		desc, _ := row.Cols["description"].(string)
		for _, interest := range alice.Strings("interests") {
			if strings.Contains(desc, interest) {
				title, _ := row.Cols["title"].(string)
				recommendations = append(recommendations, title)
				break
			}
		}
	}
	slices.Sort(recommendations)
	fmt.Fprintf(w, "[spree]     recommended for alice: %v\n", recommendations)
	if len(recommendations) != 3 {
		return fmt.Errorf("expected 3 recommendations, got %v", recommendations)
	}

	fmt.Fprintln(w, "ecosystem: OK")
	return nil
}
