// Crowdtap: the paper's production topology (Fig 10) — a main app
// surrounded by eight microservices with mixed delivery modes.
//
//	Main App (MongoDB)  --causal-->  Moderation (MongoDB)
//	                    --causal-->  Targeting (MongoDB)
//	                    --causal-->  Mailer (MongoDB)
//	                    --causal-->  Spree (PostgreSQL)
//	                    --weak--->   Analytics (Elasticsearch)
//	                    --weak--->   Search Engine (Elasticsearch)
//	                    --weak--->   Reporting (MongoDB)
//	FB Crawler (MongoDB) --causal--> Targeting
//
// Causal subscribers (the mailer must never see inconsistent state)
// coexist with weak subscribers (analytics tolerates reordering but
// must stay available) — the §6.5 lesson applied.
//
//	go run ./examples/crowdtap
package main

import (
	"errors"
	"fmt"
	"io"

	"synapse"
	"synapse/examples/internal/example"
	"synapse/internal/storage/searchdb"
)

func userModel() *synapse.Model {
	return synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("email", synapse.String),
		synapse.F("points", synapse.Int),
	)
}

func actionModel() *synapse.Model {
	return synapse.NewModel("Action",
		synapse.F("user", synapse.Ref),
		synapse.F("kind", synapse.String),
		synapse.F("brand", synapse.String),
	)
}

func main() { example.Main(run) }

func run(w io.Writer) (err error) {
	defer example.Recover(&err)
	fabric := synapse.NewFabric()

	// ------------------------------------------------------------------
	// Main app: owner of User and Action.
	// ------------------------------------------------------------------
	mainMapper := synapse.NewDocumentMapper(synapse.MongoDB)
	mainApp, err := synapse.NewApp(fabric, "main", mainMapper, synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	example.Check(mainApp.Publish(userModel(), synapse.PubSpec{Attrs: []string{"name", "email", "points"}}))
	example.Check(mainApp.Publish(actionModel(), synapse.PubSpec{Attrs: []string{"user", "kind", "brand"}}))

	// ------------------------------------------------------------------
	// FB crawler: a second publisher decorating User with social data.
	// ------------------------------------------------------------------
	crawlerMapper := synapse.NewDocumentMapper(synapse.MongoDB)
	crawler, err := synapse.NewApp(fabric, "fb-crawler", crawlerMapper, synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	crawlerUser := userModel()
	crawlerUser.AddField(synapse.F("social_reach", synapse.Int))
	example.Check(crawler.Subscribe(crawlerUser, synapse.SubSpec{From: "main", Attrs: []string{"name"}}))
	example.Check(crawler.Publish(crawlerUser, synapse.PubSpec{Attrs: []string{"social_reach"}}))
	crawler.StartWorkers(2)
	defer crawler.StopWorkers()

	type svc struct {
		name   string
		mapper synapse.Mapper
		mode   synapse.DeliveryMode
		models []string // which models to subscribe
	}
	services := []svc{
		{"moderation", synapse.NewDocumentMapper(synapse.MongoDB), synapse.Causal, []string{"Action"}},
		{"targeting", synapse.NewDocumentMapper(synapse.MongoDB), synapse.Causal, []string{"User", "Action"}},
		{"mailer", synapse.NewDocumentMapper(synapse.MongoDB), synapse.Causal, []string{"User"}},
		{"spree", synapse.NewSQLMapper(synapse.Postgres), synapse.Causal, []string{"User"}},
		{"analytics", synapse.NewSearchMapper(), synapse.Weak, []string{"User", "Action"}},
		{"search-engine", synapse.NewSearchMapper(), synapse.Weak, []string{"User"}},
		{"reporting", synapse.NewDocumentMapper(synapse.MongoDB), synapse.Weak, []string{"Action"}},
	}
	apps := map[string]*synapse.App{}
	mappers := map[string]synapse.Mapper{}
	for _, s := range services {
		app, err := synapse.NewApp(fabric, s.name, s.mapper, synapse.Config{})
		example.Check(err)
		for _, m := range s.models {
			var desc *synapse.Model
			var attrs []string
			if m == "User" {
				desc = userModel()
				attrs = []string{"name", "email", "points"}
			} else {
				desc = actionModel()
				attrs = []string{"user", "kind", "brand"}
			}
			example.Check(app.Subscribe(desc, synapse.SubSpec{From: "main", Attrs: attrs, Mode: s.mode}))
		}
		app.StartWorkers(2)
		defer app.StopWorkers()
		apps[s.name] = app
		mappers[s.name] = s.mapper
	}
	// Targeting additionally consumes the crawler's decoration, layered
	// onto the same User descriptor it already subscribes to.
	targetingUser, ok := apps["targeting"].Descriptor("User")
	if !ok {
		return errors.New("targeting lost its User model")
	}
	targetingUser.AddField(synapse.F("social_reach", synapse.Int))
	example.Check(apps["targeting"].Subscribe(targetingUser, synapse.SubSpec{
		From: "fb-crawler", Attrs: []string{"social_reach"},
	}))

	// ------------------------------------------------------------------
	// Production traffic.
	// ------------------------------------------------------------------
	fmt.Fprintf(w, "crowdtap: %d services on the fabric: %v\n", len(fabric.Apps()), fabric.Apps())
	brands := []string{"verizon", "sony", "mastercard"}
	for i := 0; i < 30; i++ {
		uid := fmt.Sprintf("u%02d", i%10)
		session := mainApp.NewSession("User", uid)
		ctl := mainApp.NewController(session)
		if i < 10 {
			u := synapse.NewRecord("User", uid)
			u.Set("name", "member-"+uid)
			u.Set("email", uid+"@example.com")
			u.Set("points", 0)
			_, err := ctl.Create(u)
			example.Check(err)
			continue
		}
		act := synapse.NewRecord("Action", fmt.Sprintf("a%02d", i))
		act.Set("user", uid)
		act.Set("kind", "share")
		act.Set("brand", brands[i%len(brands)])
		_, err := ctl.Create(act)
		example.Check(err)
		patch := synapse.NewRecord("User", uid)
		patch.Set("points", int64(i))
		_, err = ctl.Update(patch)
		example.Check(err)
	}

	// Crawler decorates users it has seen.
	example.WaitUntil(func() bool { return crawlerMapper.Len("User") == 10 })
	cctl := crawler.NewController(nil)
	for i := 0; i < 10; i++ {
		uid := fmt.Sprintf("u%02d", i)
		if _, err := cctl.Find("User", uid); err != nil {
			continue
		}
		deco := synapse.NewRecord("User", uid)
		deco.Set("social_reach", int64(100*i))
		_, err := cctl.Update(deco)
		example.Check(err)
	}

	// ------------------------------------------------------------------
	// Every service sees its slice of the data in its own engine.
	// ------------------------------------------------------------------
	example.WaitUntil(func() bool { return mappers["reporting"].Len("Action") == 20 })
	example.WaitUntil(func() bool { return mappers["spree"].Len("User") == 10 })
	example.WaitUntil(func() bool {
		rec, err := mappers["targeting"].Find("User", "u09")
		return err == nil && rec.Int("social_reach") == 900 && rec.Int("points") == 29
	})

	es := mappers["analytics"].(interface {
		Aggregate(modelName, field string, q searchdb.Query) ([]searchdb.Bucket, error)
	})
	example.WaitUntil(func() bool {
		buckets, err := es.Aggregate("Action", "brand", searchdb.Query{})
		if err != nil {
			return false
		}
		total := 0
		for _, b := range buckets {
			total += b.Count
		}
		return total == 20
	})
	buckets, err := es.Aggregate("Action", "brand", searchdb.Query{})
	example.Check(err)
	fmt.Fprintln(w, "[analytics] actions per brand (Elasticsearch aggregation):")
	for _, b := range buckets {
		fmt.Fprintf(w, "             %-12s %d\n", b.Token, b.Count)
	}

	tRec, err := mappers["targeting"].Find("User", "u09")
	example.Check(err)
	fmt.Fprintf(w, "[targeting] u09: points=%d social_reach=%d (merged from 2 publishers)\n",
		tRec.Int("points"), tRec.Int("social_reach"))

	fmt.Fprintln(w, "crowdtap: OK")
	return nil
}
