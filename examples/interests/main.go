// Interests: the paper's Example 3 (Fig 7) — matching data types with
// virtual attributes.
//
// A MongoDB publisher (Pub3) stores user interests in a native Array
// attribute. Two SQL subscribers integrate it differently:
//
//   - Sub3a flattens the array into a serialized text column — simple,
//     but interests cannot be queried efficiently;
//
//   - Sub3b uses a virtual attribute whose setter splits the array into
//     an Interest join table, so "find users interested in X" becomes an
//     indexed SQL query.
//
//     go run ./examples/interests
package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"synapse"
	"synapse/examples/internal/example"
	"synapse/internal/storage"
)

func main() { example.Main(run) }

func run(w io.Writer) (err error) {
	defer example.Recover(&err)
	fabric := synapse.NewFabric()

	// ------------------------------------------------------------------
	// Pub3: MongoDB with a native array attribute.
	// ------------------------------------------------------------------
	pub, err := synapse.NewApp(fabric, "pub3",
		synapse.NewDocumentMapper(synapse.MongoDB), synapse.Config{Mode: synapse.Causal})
	example.Check(err)
	pubUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("interests", synapse.StringList),
	)
	example.Check(pub.Publish(pubUser, synapse.PubSpec{Attrs: []string{"name", "interests"}}))

	// ------------------------------------------------------------------
	// Sub3a: flattening subscriber — interests become one text column.
	// ------------------------------------------------------------------
	flatMapper := synapse.NewSQLMapper(synapse.Postgres)
	subFlat, err := synapse.NewApp(fabric, "sub3a", flatMapper, synapse.Config{})
	example.Check(err)
	flatUser := synapse.NewModel("User",
		synapse.F("name", synapse.String),
		synapse.F("interests_text", synapse.String),
	)
	flatUser.DefineVirtual(&synapse.VirtualAttr{
		Name: "interests",
		Set: func(r *synapse.Record, v any) error {
			tmp := synapse.NewRecord("tmp", "tmp")
			tmp.Set("t", v)
			r.Set("interests_text", strings.Join(tmp.Strings("t"), ","))
			return nil
		},
	})
	example.Check(subFlat.Subscribe(flatUser, synapse.SubSpec{From: "pub3", Attrs: []string{"name", "interests"}}))
	subFlat.StartWorkers(1)
	defer subFlat.StopWorkers()

	// ------------------------------------------------------------------
	// Sub3b: join-table subscriber — the Fig 7 virtual attribute.
	// ------------------------------------------------------------------
	joinMapper := synapse.NewSQLMapper(synapse.Postgres)
	subJoin, err := synapse.NewApp(fabric, "sub3b", joinMapper, synapse.Config{})
	example.Check(err)
	interest := synapse.NewModel("Interest",
		synapse.FIndexed("user", synapse.Ref),
		synapse.FIndexed("tag", synapse.String),
	)
	example.Check(joinMapper.Register(interest))
	joinUser := synapse.NewModel("User", synapse.F("name", synapse.String))
	joinUser.DefineVirtual(&synapse.VirtualAttr{
		Name: "interests",
		Set: func(r *synapse.Record, v any) error {
			// add_or_remove: resync the user's Interest rows to the
			// received tag set (Fig 7's Interest.add_or_remove).
			tmp := synapse.NewRecord("tmp", "tmp")
			tmp.Set("t", v)
			tags := tmp.Strings("t")
			existing, err := joinMapper.DB().Select("interests",
				storage.Predicate{Field: "user", Op: storage.Eq, Value: r.ID})
			if err != nil {
				return err
			}
			want := make(map[string]bool, len(tags))
			for _, tag := range tags {
				want[tag] = true
			}
			for _, row := range existing {
				tag, _ := row.Cols["tag"].(string)
				if want[tag] {
					delete(want, tag) // already present
					continue
				}
				if err := joinMapper.Delete("Interest", row.ID); err != nil {
					return err
				}
			}
			for tag := range want {
				row := synapse.NewRecord("Interest", r.ID+"/"+tag)
				row.Set("user", r.ID)
				row.Set("tag", tag)
				if err := joinMapper.Save(row); err != nil {
					return err
				}
			}
			return nil
		},
	})
	example.Check(subJoin.Subscribe(joinUser, synapse.SubSpec{From: "pub3", Attrs: []string{"name", "interests"}}))
	subJoin.StartWorkers(1)
	defer subJoin.StopWorkers()

	// ------------------------------------------------------------------
	// Publish users with array interests; update one later.
	// ------------------------------------------------------------------
	ctl := pub.NewController(nil)
	users := map[string][]string{
		"100": {"cats", "dogs"},
		"101": {"dogs", "hiking"},
		"102": {"cooking"},
	}
	for id, tags := range users {
		rec := synapse.NewRecord("User", id)
		rec.Set("name", "user-"+id)
		rec.Set("interests", tags)
		_, err := ctl.Create(rec)
		example.Check(err)
	}
	fmt.Fprintln(w, "[pub3]  published 3 users with array interests")

	example.WaitUntil(func() bool { return joinMapper.Len("Interest") == 5 && flatMapper.Len("User") == 3 })

	// Sub3a: the flattened column round-tripped, but querying needs LIKE.
	rec, err := flatMapper.Find("User", "100")
	example.Check(err)
	fmt.Fprintf(w, "[sub3a] User/100 interests_text = %q (no efficient queries)\n",
		rec.String("interests_text"))

	// Sub3b: indexed join-table query "who likes dogs?".
	dogLovers, err := joinMapper.DB().Select("interests",
		storage.Predicate{Field: "tag", Op: storage.Eq, Value: "dogs"})
	example.Check(err)
	var ids []string
	for _, row := range dogLovers {
		ids = append(ids, row.Cols["user"].(string))
	}
	slices.Sort(ids)
	fmt.Fprintf(w, "[sub3b] users interested in dogs (indexed query): %v\n", ids)

	// An update reshapes the join table: user 100 drops cats, picks up
	// hiking.
	patch := synapse.NewRecord("User", "100")
	patch.Set("interests", []string{"dogs", "hiking"})
	_, err = ctl.Update(patch)
	example.Check(err)
	example.WaitUntil(func() bool {
		rows, err := joinMapper.DB().Select("interests",
			storage.Predicate{Field: "user", Op: storage.Eq, Value: "100"})
		if err != nil || len(rows) != 2 {
			return false
		}
		tags := map[string]bool{}
		for _, row := range rows {
			tags[row.Cols["tag"].(string)] = true
		}
		return tags["dogs"] && tags["hiking"]
	})
	fmt.Fprintln(w, "[sub3b] after update, User/100 rows resynced to {dogs, hiking}")

	fmt.Fprintln(w, "interests: OK")
	return nil
}
