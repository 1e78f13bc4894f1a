package deptrack

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"synapse/internal/vstore"
	"synapse/internal/wire"
)

func newStore(t *testing.T, card uint64) *vstore.Store {
	t.Helper()
	return vstore.New(vstore.Config{Shards: 2, Cardinality: card})
}

func TestNewPolicies(t *testing.T) {
	s := newStore(t, 64)
	for _, p := range []string{"", "hash"} {
		tr, err := New(p, s, false)
		if err != nil {
			t.Fatalf("New(%q): %v", p, err)
		}
		if tr.Policy() != PolicyHash {
			t.Fatalf("New(%q) policy = %s, want hash", p, tr.Policy())
		}
	}
	tr, err := New("dvv", s, false)
	if err != nil {
		t.Fatalf("New(dvv): %v", err)
	}
	if tr.Policy() != PolicyDVV {
		t.Fatalf("New(dvv) policy = %s", tr.Policy())
	}
	if _, err := New("vector", s, false); err == nil {
		t.Fatal("New(vector) accepted an unknown policy")
	}
}

func TestHashTokensAreDecimalKeys(t *testing.T) {
	s := newStore(t, 16)
	tr, _ := New("hash", s, false)
	name := "app/posts/id/7"
	tok := tr.Token(name)
	if tok != (wire.Token{Key: uint64(s.KeyFor(name))}) {
		t.Fatalf("hash token %v is not the hashed key %d", tok, s.KeyFor(name))
	}
	if got := tr.Resolve(tok); got != s.KeyFor(name) {
		t.Fatalf("Resolve(%v) = %d, want %d", tok, got, s.KeyFor(name))
	}
	// A DVV publisher's name token folds into the hashed space.
	if got := tr.Resolve(wire.Token{Name: name}); got != s.KeyFor(name) {
		t.Fatalf("Resolve(name) = %d, want %d", got, s.KeyFor(name))
	}
}

func TestDVVTokensAreNames(t *testing.T) {
	s := newStore(t, 0)
	tr, _ := New("dvv", s, false)
	name := "app/posts/id/7"
	if tok := tr.Token(name); tok != (wire.Token{Name: name}) {
		t.Fatalf("dvv token = %v, want the name", tok)
	}
	k1 := tr.KeyFor(name)
	k2 := tr.Resolve(wire.Token{Name: name})
	if k1 != k2 {
		t.Fatalf("intern unstable: %d vs %d", k1, k2)
	}
	if uint64(k1)&(uint64(1)<<63) == 0 {
		t.Fatalf("interned key %d outside the dot key space", k1)
	}
	if other := tr.KeyFor("app/posts/id/8"); other == k1 {
		t.Fatal("distinct names interned to the same key")
	}
	// A hash publisher's key is adopted verbatim.
	if got := tr.Resolve(wire.Token{Key: 42}); got != vstore.Key(42) {
		t.Fatalf("Resolve(42) = %d", got)
	}
}

// versions keys a plan's dependencies by wire token.
func versions(p *Plan) map[wire.Token]uint64 {
	out := map[wire.Token]uint64{}
	for _, d := range p.AppendDeps(nil) {
		out[d.Token] = d.Version
	}
	return out
}

// Plan must embed version for reads and version−1 for writes (§4.2),
// keyed by wire token, for both policies.
func TestPlanVersions(t *testing.T) {
	for _, policy := range []string{"hash", "dvv"} {
		s := newStore(t, 0)
		tr, _ := New(policy, s, false)
		write := "app/posts/id/1"
		read := "app/users/id/9"

		p1, err := tr.Plan([]string{read}, []string{write})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		wTok, rTok := tr.Token(write), tr.Token(read)
		if len(versions(&p1)) != 2 {
			t.Fatalf("%s: plan = %v, want the two tokens", policy, versions(&p1))
		}
		if got := versions(&p1)[wTok]; got != 0 {
			t.Fatalf("%s: first write version = %d, want 0 (version-1)", policy, got)
		}
		if got := versions(&p1)[rTok]; got != 0 {
			t.Fatalf("%s: read-only version = %d, want 0", policy, got)
		}
		p1.Release()
		p1.Release() // idempotent

		p2, err := tr.Plan(nil, []string{write})
		if err != nil {
			t.Fatal(err)
		}
		if got := versions(&p2)[wTok]; got != 1 {
			t.Fatalf("%s: second write version = %d, want 1", policy, got)
		}
		p2.Release()
	}
}

// TestEncodeDeps: a plan's dependencies reach the wire in the tracker's
// form — hashed keys in "dependencies", exact names in "dots" beside an
// empty "dependencies" object, which the format requires — and the
// object's own token in "object_dep".
func TestEncodeDeps(t *testing.T) {
	s := newStore(t, 16)
	hash, _ := New("hash", s, false)
	dvv, _ := New("dvv", s, false)
	name := "app/posts/id/1"
	encode := func(tr Tracker) *wire.Message {
		t.Helper()
		p, err := tr.Plan(nil, []string{name})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		m := &wire.Message{App: "app", Operations: []wire.Operation{{Operation: wire.OpCreate, Types: []string{"Post"}, ID: "1", Object: tr.Token(name)}}}
		m.SetDeps(p.AppendDeps(nil))
		payload, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := wire.Unmarshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, tr := range []Tracker{hash, dvv} {
		m := encode(tr)
		tok := tr.Token(name)
		if want := []wire.Dep{{Token: tok}}; !reflect.DeepEqual(m.Deps, want) || m.Operations[0].Object != tok {
			t.Fatalf("%s encode: deps=%v object=%v, want %v", tr.Policy(), m.Deps, m.Operations[0].Object, want)
		}
	}
	payload := func(tr Tracker) string {
		m := &wire.Message{App: "app", Operations: []wire.Operation{{Operation: wire.OpCreate, Types: []string{"Post"}, ID: "1", Object: tr.Token(name)}}}
		m.SetDeps([]wire.Dep{{Token: tr.Token(name)}})
		b, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	k := fmt.Sprint(uint64(s.KeyFor(name)))
	if p := payload(hash); !strings.Contains(p, `"dependencies":{"`+k+`":0}`) || strings.Contains(p, "dots") {
		t.Fatalf("hash payload %s", p)
	}
	if p := payload(dvv); !strings.Contains(p, `"dependencies":{},"dots":{"`+name+`":0}`) {
		t.Fatalf("dvv payload %s, want an empty dependencies object beside the dots", p)
	}
}

// ExportVersions must round-trip through Resolve on a DIFFERENT store:
// the §4.4 bootstrap bulk-load path for same- and cross-policy pairs.
func TestExportVersionsCrossStore(t *testing.T) {
	for _, pubPolicy := range []string{"hash", "dvv"} {
		for _, subPolicy := range []string{"hash", "dvv"} {
			pubStore := newStore(t, 0)
			pub, _ := New(pubPolicy, pubStore, false)
			name := "app/posts/id/1"
			p, err := pub.Plan(nil, []string{name})
			if err != nil {
				t.Fatal(err)
			}
			p.Release()

			exported, err := pub.ExportVersions()
			if err != nil {
				t.Fatal(err)
			}
			if len(exported) != 1 {
				t.Fatalf("%s->%s: exported %d entries", pubPolicy, subPolicy, len(exported))
			}

			subStore := newStore(t, 0)
			sub, _ := New(subPolicy, subStore, false)
			for tok, c := range exported {
				if err := subStore.SetOpsMulti(map[vstore.Key]uint64{sub.Resolve(tok): c.Ops}); err != nil {
					t.Fatal(err)
				}
			}
			// The subscriber must now see the publisher's ops counter
			// under ITS OWN key for the name's token form.
			k := sub.Resolve(pub.Token(name))
			if got := subStore.Ops(k); got != 1 {
				t.Fatalf("%s->%s: ops = %d, want 1", pubPolicy, subPolicy, got)
			}
		}
	}
}

func TestDescribeKey(t *testing.T) {
	s := newStore(t, 16)
	hash, _ := New("hash", s, false)
	if d := hash.DescribeKey(vstore.Key(5)); !strings.Contains(d, "5") {
		t.Fatalf("hash DescribeKey = %q", d)
	}
	dvv, _ := New("dvv", s, false)
	k := dvv.KeyFor("app/posts/id/1")
	if d := dvv.DescribeKey(k); !strings.Contains(d, "app/posts/id/1") {
		t.Fatalf("dvv DescribeKey = %q, want the name", d)
	}
	if d := dvv.DescribeKey(vstore.Key(7)); !strings.Contains(d, "7") {
		t.Fatalf("dvv DescribeKey(unknown) = %q", d)
	}
}

func TestPlanDeadStore(t *testing.T) {
	s := newStore(t, 16)
	s.Kill()
	for _, policy := range []string{"hash", "dvv"} {
		tr, _ := New(policy, s, false)
		if _, err := tr.Plan(nil, []string{"a/b/id/1"}); err == nil {
			t.Fatalf("%s: Plan on a dead store succeeded", policy)
		}
	}
}

func TestDVVInternConcurrent(t *testing.T) {
	s := newStore(t, 0)
	tr, _ := New("dvv", s, false)
	const workers = 8
	keys := make([]vstore.Key, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			keys[w] = tr.KeyFor("app/posts/id/77")
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 1; w < workers; w++ {
		if keys[w] != keys[0] {
			t.Fatalf("concurrent intern diverged: %d vs %d", keys[w], keys[0])
		}
	}
}

// TestPlanAllocBudget pins the publisher's plan as a slot fill: for a
// publish's usual three names neither tracker builds a token string or a
// map — the batch's (key, version) pairs are the plan — so there is no
// key list, no grouping map, no Batch and no Plan on the heap either.
func TestPlanAllocBudget(t *testing.T) {
	reads := []string{"app/posts/id/7"}
	writes := []string{"app/comments/id/1", "app/users/id/9"}
	for policy, budget := range map[string]float64{"hash": 0, "dvv": 0} {
		tr, _ := New(policy, newStore(t, 0), false)
		got := testing.AllocsPerRun(200, func() {
			p, err := tr.Plan(reads, writes)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		})
		if got > budget {
			t.Errorf("%s: Plan+Release = %.0f allocations, budget %.0f", policy, got, budget)
		}
	}
}

// TestOneWindowScriptServesBothTrackers drives the subscriber's combined
// probe-and-claim script with what real messages carry — hashed keys
// from a hash publisher, exact dots from a DVV one — resolved through a
// hash and through a DVV subscriber, the mixed pairs included, at 1 and
// 4 shards. A publisher's stream is delivered out of order to a pair of
// twin subscriber stores: one takes each message through ClaimIfMet, the
// other through the sequence it replaced (Park, then ApplyBatch). Both
// must admit the same messages at the same points with the same claim
// results, be woken by the same increments, and end with the same
// counters under every token.
func TestOneWindowScriptServesBothTrackers(t *testing.T) {
	type message struct {
		deps   map[wire.Token]uint64 // token -> version, as the wire carries it
		object wire.Token            // the written object's token
	}
	type side struct {
		store *vstore.Store
		tr    Tracker
		wakes map[int]int
	}
	for _, shards := range []int{1, 4} {
		for _, pair := range [][2]string{{"hash", "hash"}, {"dvv", "dvv"}, {"dvv", "hash"}, {"hash", "dvv"}} {
			rng := rand.New(rand.NewSource(int64(shards)))
			pub, _ := New(pair[0], vstore.New(vstore.Config{Shards: shards, Cardinality: 16}), false)
			var stream []message
			for i := 0; i < 60; i++ {
				write := fmt.Sprintf("pub/posts/id/%d", rng.Intn(6))
				reads := []string{fmt.Sprintf("pub/users/id/%d", rng.Intn(4))}
				plan, err := pub.Plan(reads, []string{write})
				if err != nil {
					t.Fatal(err)
				}
				plan.Release()
				stream = append(stream, message{deps: versions(&plan), object: pub.Token(write)})
			}
			// Deliver in a shuffled order so dependants run ahead of what
			// they depend on.
			order := rng.Perm(len(stream))

			var sides [2]*side
			for i := range sides {
				store := vstore.New(vstore.Config{Shards: shards, Cardinality: 16})
				tr, _ := New(pair[1], store, false)
				sides[i] = &side{store: store, tr: tr, wakes: map[int]int{}}
			}
			// try runs message m on one side; combined says which script.
			try := func(s *side, m int, combined bool) (admitted bool, res vstore.ClaimResult) {
				msg := stream[m]
				var reqs []vstore.WaitReq
				reqMap := map[vstore.Key]uint64{}
				for tok, v := range msg.deps {
					k := s.tr.Resolve(tok)
					reqs = append(reqs, vstore.WaitReq{Key: k, Need: v})
					reqMap[k] = max(reqMap[k], v)
				}
				claims := []vstore.Claim{{Key: s.tr.Resolve(msg.object), Version: msg.deps[msg.object] + 1}}
				wake := vstore.WakeFunc(func() { s.wakes[m]++ })
				var p *vstore.Parked
				var err error
				results := make([]vstore.ClaimResult, 1)
				if combined {
					p, err = s.store.ClaimIfMet(reqs, claims, results, wake)
				} else if p, err = s.store.Park(reqMap, wake); p == nil && err == nil {
					results, err = s.store.ApplyBatch(claims)
				}
				if err != nil {
					t.Fatal(err)
				}
				if p != nil {
					return false, vstore.ClaimResult{}
				}
				keys := make([]vstore.Key, 0, len(reqs))
				for _, r := range reqs {
					keys = append(keys, r.Key)
				}
				if err := s.store.IncrOps(keys); err != nil {
					t.Fatal(err)
				}
				return true, results[0]
			}
			pending, waiting := order, []int(nil)
			for len(pending) > 0 {
				for _, m := range pending {
					a0, r0 := try(sides[0], m, true)
					a1, r1 := try(sides[1], m, false)
					if a0 != a1 || r0 != r1 {
						t.Fatalf("%v shards=%d message %d: combined admitted=%v %+v, sequence admitted=%v %+v", pair, shards, m, a0, r0, a1, r1)
					}
					if !a0 {
						waiting = append(waiting, m)
					}
				}
				// Only what an increment released tries again.
				pending = nil
				still := waiting[:0]
				for _, m := range waiting {
					if sides[0].wakes[m] != sides[1].wakes[m] {
						t.Fatalf("%v shards=%d message %d: woken %d times combined, %d by the sequence", pair, shards, m, sides[0].wakes[m], sides[1].wakes[m])
					}
					if sides[0].wakes[m] > 0 {
						sides[0].wakes[m], sides[1].wakes[m] = 0, 0
						pending = append(pending, m)
					} else {
						still = append(still, m)
					}
				}
				waiting = still
			}
			if len(waiting) > 0 {
				t.Fatalf("%v shards=%d: %d messages parked and never woken", pair, shards, len(waiting))
			}
			x0, err0 := sides[0].tr.ExportVersions()
			x1, err1 := sides[1].tr.ExportVersions()
			if err0 != nil || err1 != nil || !reflect.DeepEqual(x0, x1) {
				t.Fatalf("%v shards=%d: the stores diverged:\ncombined %v\nsequence %v", pair, shards, x0, x1)
			}
		}
	}
}
