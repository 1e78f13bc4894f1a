// Socialgraph: the paper's Example 2 (Fig 5) — mapping data models with
// Observers.
//
// The main application (Pub2) stores Users and Friendships in a SQL
// database, where friendships live in their own table. A recommendation
// engine (Sub2) integrates the same data into a graph database, where a
// friendship is far better represented as an edge between User nodes.
// An Observer subscribes to the Friendship model and, instead of
// persisting rows, maintains graph edges — letting the subscriber run
// friends-of-friends recommendation traversals natively.
//
//	go run ./examples/socialgraph
package main

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"synapse"
	"synapse/examples/internal/example"
)

func main() { example.Main(run) }

func run(w io.Writer) (err error) {
	defer example.Recover(&err)
	fabric := synapse.NewFabric()

	// ------------------------------------------------------------------
	// Pub2: the main app on SQL. Friendships are rows.
	// ------------------------------------------------------------------
	pub, err := synapse.NewApp(fabric, "pub2",
		synapse.NewSQLMapper(synapse.MySQL), synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	user := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("likes", synapse.StringList), // product ids the user liked
	)
	friendship := synapse.NewModel("Friendship",
		synapse.F("user1", synapse.Ref),
		synapse.F("user2", synapse.Ref),
	)
	example.Check(pub.Publish(user, synapse.PubSpec{Attrs: []string{"name", "likes"}}))
	example.Check(pub.Publish(friendship, synapse.PubSpec{Attrs: []string{"user1", "user2"}}))

	// ------------------------------------------------------------------
	// Sub2: the recommendation engine on Neo4j. Users are nodes;
	// Friendship is an Observer that adds/removes edges (Fig 5 right).
	// ------------------------------------------------------------------
	graph := synapse.NewGraphMapper()
	sub, err := synapse.NewApp(fabric, "sub2", graph, synapse.Config{})
	example.Check(err)
	gUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("likes", synapse.StringList),
	)
	example.Check(sub.Subscribe(gUser, synapse.SubSpec{From: "pub2", Attrs: []string{"name", "likes"}}))

	gFriendship := synapse.NewModel("Friendship",
		synapse.F("user1", synapse.Ref),
		synapse.F("user2", synapse.Ref),
	)
	gFriendship.Callbacks.On(synapse.AfterCreate, func(ctx *synapse.CallbackCtx) error {
		return graph.Relate("User", ctx.Record.String("user1"), "FRIEND",
			"User", ctx.Record.String("user2"))
	})
	gFriendship.Callbacks.On(synapse.AfterDestroy, func(ctx *synapse.CallbackCtx) error {
		return graph.Unrelate("User", ctx.Record.String("user1"), "FRIEND",
			"User", ctx.Record.String("user2"))
	})
	example.Check(sub.Subscribe(gFriendship, synapse.SubSpec{
		From: "pub2", Attrs: []string{"user1", "user2"}, Observer: true,
	}))
	sub.StartWorkers(2)
	defer sub.StopWorkers()

	// ------------------------------------------------------------------
	// Seed a small social network on the publisher.
	// ------------------------------------------------------------------
	people := map[string][]string{ // id -> liked products
		"alice": {"espresso-machine"},
		"bob":   {"mechanical-keyboard"},
		"carol": {"trail-shoes", "headlamp"},
		"dave":  {"espresso-machine", "grinder"},
	}
	ctl := pub.NewController(nil)
	for id, likes := range people {
		rec := synapse.NewRecord("User", id)
		rec.Set("name", id)
		rec.Set("likes", likes)
		_, err := ctl.Create(rec)
		example.Check(err)
	}
	addFriend := func(fid, a, b string) {
		rec := synapse.NewRecord("Friendship", fid)
		rec.Set("user1", a)
		rec.Set("user2", b)
		_, err := ctl.Create(rec)
		example.Check(err)
		fmt.Fprintf(w, "[pub2] %s <-> %s\n", a, b)
	}
	addFriend("f1", "alice", "bob")
	addFriend("f2", "bob", "carol")
	addFriend("f3", "carol", "dave")

	example.WaitUntil(func() bool {
		return graph.Len("User") == 4 && graph.DB().Degree("User:bob", "FRIEND") == 2 &&
			graph.DB().Degree("User:carol", "FRIEND") == 2
	})

	// ------------------------------------------------------------------
	// Graph-native recommendations: what do friends (and friends of
	// friends) like that alice doesn't have yet?
	// ------------------------------------------------------------------
	network := graph.Network("User", "alice", "FRIEND", 2) // bob, carol
	fmt.Fprintf(w, "[sub2] alice's 2-hop network: %v\n", network)

	liked := map[string]bool{}
	for _, friend := range network {
		rec, err := graph.Find("User", friend)
		example.Check(err)
		for _, product := range rec.Strings("likes") {
			liked[product] = true
		}
	}
	self, err := graph.Find("User", "alice")
	example.Check(err)
	for _, product := range self.Strings("likes") {
		delete(liked, product)
	}
	fmt.Fprintf(w, "[sub2] recommendations for alice: %v\n", slices.Sorted(maps.Keys(liked)))

	// ------------------------------------------------------------------
	// Unfriending removes the edge through the same observer.
	// ------------------------------------------------------------------
	example.Check(ctl.Destroy("Friendship", "f2"))
	example.WaitUntil(func() bool { return graph.DB().Degree("User:bob", "FRIEND") == 1 })
	fmt.Fprintf(w, "[sub2] after unfriending, alice's network: %v\n",
		graph.Network("User", "alice", "FRIEND", 2))

	fmt.Fprintln(w, "socialgraph: OK")
	return nil
}
