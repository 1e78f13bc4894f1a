package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/orm/activerecord"
	"synapse/internal/storage/reldb"
	"synapse/internal/wire"
)

// skeletonTap is a PostgreSQL mapper that keeps every journal skeleton
// its transactions stage.
type skeletonTap struct {
	*activerecord.Mapper
	skeletons *[]string
}

func (m skeletonTap) Begin() orm.MapperTx {
	return skeletonTx{m.Mapper.Begin().(*activerecord.Tx), m.skeletons}
}

type skeletonTx struct {
	*activerecord.Tx
	skeletons *[]string
}

func (tx skeletonTx) StageJournal(rec *model.Record) error {
	*tx.skeletons = append(*tx.skeletons, rec.String("payload"))
	return tx.Tx.StageJournal(rec)
}

// wireMirror is a message as encoding/json sees it: the document the
// encoder writes, each dependency list a map keyed by token text. It is
// the wire package's test mirror (codec_test.go), which core's tests
// cannot import; the two change together.
type wireMirror struct {
	App          string            `json:"app"`
	Operations   []wireMirrorOp    `json:"operations"`
	Dependencies map[string]uint64 `json:"dependencies"`
	External     map[string]uint64 `json:"external_dependencies,omitempty"`
	Dots         map[string]uint64 `json:"dots,omitempty"`
	PublishedAt  time.Time         `json:"published_at"`
	Generation   uint64            `json:"generation"`
	GlobalDep    string            `json:"global_dep,omitempty"`
	Seq          uint64            `json:"seq"`
	Recovered    bool              `json:"recovered,omitempty"`
}

type wireMirrorOp struct {
	Operation  wire.OpKind    `json:"operation"`
	Types      []string       `json:"types"`
	ID         string         `json:"id"`
	Attributes map[string]any `json:"attributes,omitempty"`
	ObjectDep  string         `json:"object_dep"`
}

// TestPublishPayloadsMatchEncodingJSON is the differential check of the
// dependency tokens and the projected attributes: for a fixed 256-message
// stream of creates, updates and destroys from a hash and from a DVV
// publisher, the journal skeleton and the final payload of every publish
// are byte for byte what encoding/json makes of the message's mirror
// built the old way — dependency maps keyed by token text, version for
// reads and version−1 for writes kept by a shadow of the version store,
// attributes as maps read from the staged record and from the read-back.
// Under hash, cardinality 16 puts keys like 9 and 10 in one message,
// whose decimal order is not their numeric order. Every payload also
// decodes projected, with a sink for every operation with attributes.
func TestPublishPayloadsMatchEncodingJSON(t *testing.T) {
	for _, cfg := range []Config{{Mode: Causal, DepCardinality: 16}, {Mode: Causal, DepTracker: TrackerDVV}} {
		t.Run("tracker="+cfg.DepTracker, func(t *testing.T) {
			f := NewFabric()
			var skeletons []string
			pub, err := NewApp(f, "pub", skeletonTap{activerecord.New(reldb.New(reldb.Postgres)), &skeletons}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustPublish(t, pub, userDesc(), "name")
			mustPublish(t, pub, postDesc(), "author", "body")
			payloads := payloadTap(t, f, "pub")

			// The shadow version store: ops and version per token, bumped
			// once per distinct token of a publish.
			type counters struct{ ops, version uint64 }
			shadow := map[string]*counters{}
			plan := func(reads, writes []string) map[string]uint64 {
				written := map[string]bool{}
				for _, n := range reads {
					written[pub.tracker.Token(n).String()] = false
				}
				for _, n := range writes {
					written[pub.tracker.Token(n).String()] = true
				}
				out := map[string]uint64{}
				for tok, w := range written {
					c := shadow[tok]
					if c == nil {
						c = &counters{}
						shadow[tok] = c
					}
					c.ops++
					if out[tok] = c.version; w {
						c.version = c.ops
						out[tok] = c.version - 1
					}
				}
				return out
			}
			lens := func(modelName string) *model.Projection { return pub.publication(modelName).lens }
			// A subscriber's compiled Post subscription, as its decoder's sink.
			post := &projection{Projection: lens("Post")}
			resolve := func(origin string, types []string) wire.Sink {
				if origin == "pub" && slices.Contains(types, "Post") {
					return post
				}
				return nil
			}
			withAttrs, projected := 0, 0 // operations that carry attributes; of those, decoded projected

			rng := rand.New(rand.NewSource(1))
			var live []string
			crossed := false // a message whose decimal key order is not its numeric order
			for i := range 256 {
				user := fmt.Sprintf("u%d", rng.Intn(8))
				ctl := pub.NewController(pub.NewSession("User", user))
				var reads []string
				if rng.Intn(2) == 0 {
					reader := fmt.Sprintf("u%d", rng.Intn(8))
					ctl.AddReadDeps("User", reader)
					reads = append(reads, depName("pub", "User", reader))
				}
				var verb wire.OpKind
				var id string
				var staged, written *model.Record
				switch k := rng.Intn(4); {
				case len(live) == 0 || k < 2:
					verb, id = wire.OpCreate, fmt.Sprintf("p%d", i)
					staged = model.NewRecord("Post", id)
					staged.Set("author", user)
					staged.Set("body", fmt.Sprintf("body %d", i))
					written, err = ctl.Create(staged)
					live = append(live, id)
				case k == 2:
					verb, id = wire.OpUpdate, live[rng.Intn(len(live))]
					staged = model.NewRecord("Post", id)
					staged.Set("body", fmt.Sprintf("edit %d", i))
					written, err = ctl.Update(staged)
				default:
					j := rng.Intn(len(live))
					verb, id = wire.OpDestroy, live[j]
					live = slices.Delete(live, j, j+1)
					if staged, err = pub.mapper.Find("Post", id); err != nil {
						t.Fatal(err)
					}
					written = staged
					err = ctl.Destroy("Post", id)
				}
				if err != nil {
					t.Fatal(err)
				}
				object := depName("pub", "Post", id)
				versions := plan(reads, []string{object, depName("pub", "User", user)})
				numeric := func(a, b string) int {
					x, _ := strconv.ParseUint(a, 10, 64)
					y, _ := strconv.ParseUint(b, 10, 64)
					return cmp.Compare(x, y)
				}
				crossed = crossed || cfg.DepTracker == "" && !slices.IsSortedFunc(slices.Sorted(maps.Keys(versions)), numeric)

				got := payloads()
				if len(got) != 1 || len(skeletons) != i+1 {
					t.Fatalf("message %d: %d payloads, %d skeletons", i, len(got), len(skeletons))
				}
				for _, c := range []struct {
					what    string
					payload []byte
					attrs   *model.Record
				}{{"skeleton", []byte(skeletons[i]), staged}, {"final", got[0], written}} {
					sent, err := wire.Unmarshal(c.payload)
					if err != nil {
						t.Fatal(err)
					}
					proj, err := wire.UnmarshalProjected(c.payload, resolve)
					if err != nil {
						t.Fatal(err)
					}
					for k := range sent.Operations {
						if len(sent.Operations[k].Attributes) > 0 {
							withAttrs++
							if _, ok := proj.Operations[k].Sink(); ok {
								projected++
							}
						}
					}
					wire.ReleaseMessage(proj)
					want := &wireMirror{
						App: "pub",
						Operations: []wireMirrorOp{{
							Operation: verb, Types: []string{"Post"}, ID: id,
							Attributes: lens("Post").Read(c.attrs),
							ObjectDep:  pub.tracker.Token(object).String(),
						}},
						Dependencies: versions,
						PublishedAt:  sent.PublishedAt,
						Seq:          uint64(i + 1),
					}
					if cfg.DepTracker == TrackerDVV {
						want.Dependencies, want.Dots = map[string]uint64{}, versions
					}
					b, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(c.payload, b) {
						t.Fatalf("message %d, %s:\n got %s\nwant %s", i, c.what, c.payload, b)
					}
				}
			}
			// The share of operations with attributes a projected decode
			// chose a sink for is 100 %.
			if withAttrs == 0 || projected != withAttrs {
				t.Fatalf("%d of %d operations with attributes decoded projected", projected, withAttrs)
			}
			if cfg.DepTracker == "" && !crossed {
				t.Fatal("no message carried keys whose decimal order differs from their numeric order")
			}
		})
	}
}

// TestPublishRefusesTooDeepAttribute: an attribute nested deeper than the
// decoder reads is refused at the publish, which returns the error,
// rather than put on the bus for every subscriber to drop.
func TestPublishRefusesTooDeepAttribute(t *testing.T) {
	for _, mapper := range []string{"postgresql", "mongodb"} {
		t.Run(mapper, func(t *testing.T) {
			f := NewFabric()
			pub, err := NewApp(f, "pub", mapperFor(mapper), Config{Mode: Causal})
			if err != nil {
				t.Fatal(err)
			}
			mustPublish(t, pub, model.NewDescriptor("Doc", model.Field{Name: "meta", Type: model.Map}), "meta")
			payloads := payloadTap(t, f, "pub")
			deep := func(depth int) map[string]any {
				v := map[string]any{"leaf": true}
				for range depth - 2 {
					v = map[string]any{"a": v}
				}
				return v
			}
			ctl := pub.NewController(nil)
			rec := model.NewRecord("Doc", "d1")
			rec.Set("meta", deep(200))
			if _, err := ctl.Create(rec); err == nil {
				t.Fatal("a publish with a 200-deep attribute succeeded")
			}
			rec = model.NewRecord("Doc", "d2")
			rec.Set("meta", deep(20))
			if _, err := ctl.Create(rec); err != nil {
				t.Fatal(err)
			}
			got := payloads()
			if len(got) != 1 {
				t.Fatalf("%d payloads on the bus, want the one for d2", len(got))
			}
			if _, err := wire.Unmarshal(got[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPublishTokensMatchNames: the keys a publish resolves from the
// parts of its names carry the tokens the names themselves resolve to.
// Every operation's Object is tracker.Token(depName(...)), and the
// message's Deps are the tokens of its writes, its session's user, its
// explicit write dependency, the write it chains after and its read,
// with the global object's in global mode — under both trackers, for
// ids with a '/' and with non-ASCII characters.
func TestPublishTokensMatchNames(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: Causal, DepCardinality: 16}, {Mode: Causal, DepTracker: TrackerDVV},
		{Mode: Global}, {Mode: Global, DepTracker: TrackerDVV},
	} {
		t.Run(fmt.Sprintf("%v/%s", cfg.Mode, cmp.Or(cfg.DepTracker, TrackerHash)), func(t *testing.T) {
			f := NewFabric()
			pub, _ := newSQLApp(t, f, "pub", cfg)
			mustPublish(t, pub, userDesc(), "name")
			mustPublish(t, pub, postDesc(), "author", "body")
			msgs := tap(t, f, "pub")
			tok := func(modelName, id string) wire.Token { return pub.Tracker().Token(depName("pub", modelName, id)) }
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			post := func(id string) *model.Record {
				r := model.NewRecord("Post", id)
				r.Set("body", id)
				return r
			}

			u := model.NewRecord("User", "ü/1")
			u.Set("name", "alice")
			_, err := pub.NewController(nil).Create(u)
			must(err)
			ctl := pub.NewController(pub.NewSession("User", "ü/1"))
			_, err = ctl.Find("User", "ü/1")
			must(err)
			ctl.AddWriteDeps("User", "agg")
			_, err = ctl.Create(post("p/1"))
			must(err)
			_, err = ctl.Update(post("p/1"))
			must(err)
			must(ctl.Transaction(func(tx *Txn) error {
				must(tx.Create(post("p/2")))
				return tx.Create(post("ß"))
			}))

			user, p1, p2, p3 := tok("User", "ü/1"), tok("Post", "p/1"), tok("Post", "p/2"), tok("Post", "ß")
			want := []struct{ objects, deps []wire.Token }{
				{[]wire.Token{user}, []wire.Token{user}},
				{[]wire.Token{p1}, []wire.Token{p1, user, tok("User", "agg")}}, // the read is the session's user
				{[]wire.Token{p1}, []wire.Token{p1, user}},                     // chained after itself
				{[]wire.Token{p2, p3}, []wire.Token{p2, p3, user, p1}},
			}
			got := msgs()
			if len(got) != len(want) {
				t.Fatalf("%d messages, want %d", len(got), len(want))
			}
			global := pub.Tracker().Token(globalDepName("pub"))
			for i, w := range want {
				m := got[i]
				var objects []wire.Token
				for _, op := range m.Operations {
					objects = append(objects, op.Object)
				}
				if !slices.Equal(objects, w.objects) {
					t.Errorf("message %d: objects %v, want %v", i, objects, w.objects)
				}
				deps := slices.Clone(w.deps)
				if cfg.Mode == Global {
					deps = append(deps, global)
					if m.GlobalDep == nil || *m.GlobalDep != global {
						t.Errorf("message %d: global dep %v, want %v", i, m.GlobalDep, global)
					}
				}
				got := slices.SortedFunc(maps.Keys(depVersions(m)), tokenOrder)
				if want := slices.Compact(slices.SortedFunc(slices.Values(deps), tokenOrder)); !slices.Equal(got, want) {
					t.Errorf("message %d: deps %v, want %v", i, got, want)
				}
			}
		})
	}
}

// tokenOrder sorts tokens by their text.
func tokenOrder(a, b wire.Token) int { return cmp.Compare(a.String(), b.String()) }
