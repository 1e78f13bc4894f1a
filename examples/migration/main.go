// Migration: the paper's production notes (§6.5, "Supports Heavy
// Refactoring") — Synapse as a zero-downtime migration tool — plus the
// live schema migration rules of §4.3.
//
// Part 1, live DB migration: Crowdtap migrated their main app from
// MongoDB to TokuMX by standing up the new app as a subscriber to ALL
// of the old app's data, bootstrapping it, letting it track live
// writes, and then switching the load balancer.
//
// Part 2, live schema migration: a publisher removes a stored column
// but keeps publishing the attribute through a virtual alias, so
// subscribers never observe the internal change; then it publishes a
// brand-new attribute and subscribers pick it up with a partial
// bootstrap.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"io"

	"synapse"
	"synapse/examples/internal/example"
)

func main() { example.Main(run) }

func run(w io.Writer) (err error) {
	defer example.Recover(&err)
	fabric := synapse.NewFabric()

	// ------------------------------------------------------------------
	// Part 1: live DB migration (MongoDB -> TokuMX clone-and-switch).
	// ------------------------------------------------------------------
	oldMapper := synapse.NewDocumentMapper(synapse.MongoDB)
	oldApp, err := synapse.NewApp(fabric, "main-v1", oldMapper, synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	user := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("email", synapse.String),
	)
	example.Check(oldApp.Publish(user, synapse.PubSpec{Attrs: []string{"name", "email"}}))

	// Production has been running for a while.
	ctl := oldApp.NewController(nil)
	for i := 0; i < 100; i++ {
		rec := synapse.NewRecord("User", fmt.Sprintf("u%03d", i))
		rec.Set("name", fmt.Sprintf("member %d", i))
		rec.Set("email", fmt.Sprintf("m%d@example.com", i))
		_, err := ctl.Create(rec)
		example.Check(err)
	}
	fmt.Fprintf(w, "[main-v1]  %d users on MongoDB\n", oldMapper.Len("User"))

	// The replacement app subscribes to ALL of the old app's data.
	newMapper := synapse.NewDocumentMapper(synapse.TokuMX)
	newApp, err := synapse.NewApp(fabric, "main-v2", newMapper, synapse.Config{})
	example.Check(err)
	v2User := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("email", synapse.String),
	)
	example.Check(newApp.Subscribe(v2User, synapse.SubSpec{From: "main-v1", Attrs: []string{"name", "email"}}))
	example.Check(newApp.Bootstrap("main-v1"))
	newApp.StartWorkers(2)
	defer newApp.StopWorkers()
	fmt.Fprintf(w, "[main-v2]  bootstrapped %d users onto TokuMX\n", newMapper.Len("User"))

	// Both versions run simultaneously; live writes keep flowing to v2
	// while QA pokes at it (the paper's no-downtime procedure).
	rec := synapse.NewRecord("User", "u100")
	rec.Set("name", "late signup")
	rec.Set("email", "late@example.com")
	_, err = ctl.Create(rec)
	example.Check(err)
	example.WaitUntil(func() bool { return newMapper.Len("User") == 101 })
	fmt.Fprintln(w, "[main-v2]  live writes tracked; load balancer can switch with no downtime")

	// ------------------------------------------------------------------
	// Part 2: live schema migration (§4.3).
	// ------------------------------------------------------------------
	// A subscriber consumes the published "email" attribute.
	audit := synapse.NewDocumentMapper(synapse.MongoDB)
	auditApp, err := synapse.NewApp(fabric, "audit", audit, synapse.Config{})
	example.Check(err)
	auditUser := synapse.NewModel("User", synapse.F("email", synapse.String))
	example.Check(auditApp.Subscribe(auditUser, synapse.SubSpec{From: "main-v1", Attrs: []string{"email"}}))
	example.Check(auditApp.Bootstrap("main-v1"))
	auditApp.StartWorkers(1)
	defer auditApp.StopWorkers()

	// Rule 1: before removing a published attribute from the DB schema,
	// add a virtual attribute of the same name. The publisher refactors
	// its storage to keep emails in a separate contact document, but
	// subscribers keep receiving "email" unchanged.
	user.RemoveField("email")
	user.DefineVirtual(&synapse.VirtualAttr{
		Name: "email",
		Get: func(r *synapse.Record) any {
			// Internally reconstructed (here: derived from the id).
			return r.ID + "@contacts.example.com"
		},
	})
	fmt.Fprintln(w, "[main-v1]  dropped the email column; virtual alias keeps the contract")

	patch := synapse.NewRecord("User", "u001")
	patch.Set("name", "renamed member")
	_, err = ctl.Update(patch)
	example.Check(err)
	example.WaitUntil(func() bool {
		got, err := audit.Find("User", "u001")
		return err == nil && got.String("email") == "u001@contacts.example.com"
	})
	fmt.Fprintln(w, "[audit]    still receives email via the virtual alias")

	// Rule 3: publishing a new attribute — publisher deploys first, then
	// subscribers, then a partial bootstrap digests existing data.
	user.AddField(synapse.F("tier", synapse.String))
	example.Check(oldApp.Publish(user, synapse.PubSpec{Attrs: []string{"tier"}}))
	for _, id := range []string{"u001", "u002"} {
		p := synapse.NewRecord("User", id)
		p.Set("tier", "gold")
		_, err := ctl.Update(p)
		example.Check(err)
	}

	auditUser.AddField(synapse.F("tier", synapse.String))
	example.Check(auditApp.Subscribe(auditUser, synapse.SubSpec{From: "main-v1", Attrs: []string{"tier"}}))
	example.Check(auditApp.Bootstrap("main-v1", "User")) // partial bootstrap
	example.WaitUntil(func() bool {
		got, err := audit.Find("User", "u002")
		return err == nil && got.String("tier") == "gold"
	})
	fmt.Fprintln(w, "[audit]    picked up the new 'tier' attribute after a partial bootstrap")

	fmt.Fprintln(w, "migration: OK")
	return nil
}
