package deptrack

import (
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
	if wire.IsNameToken(tok) {
		t.Fatalf("hash token %q is name-form", tok)
	}
	if got := tr.Resolve(tok); got != s.KeyFor(name) {
		t.Fatalf("Resolve(%q) = %d, want %d", tok, got, s.KeyFor(name))
	}
	// A DVV publisher's name token folds into the hashed space.
	if got := tr.Resolve(name); got != s.KeyFor(name) {
		t.Fatalf("Resolve(name) = %d, want %d", got, s.KeyFor(name))
	}
}

func TestDVVTokensAreNames(t *testing.T) {
	s := newStore(t, 0)
	tr, _ := New("dvv", s, false)
	name := "app/posts/id/7"
	if tok := tr.Token(name); tok != name {
		t.Fatalf("dvv token = %q, want the name", tok)
	}
	k1 := tr.KeyFor(name)
	k2 := tr.Resolve(name)
	if k1 != k2 {
		t.Fatalf("intern unstable: %d vs %d", k1, k2)
	}
	if uint64(k1)&(uint64(1)<<63) == 0 {
		t.Fatalf("interned key %d outside the dot key space", k1)
	}
	if other := tr.KeyFor("app/posts/id/8"); other == k1 {
		t.Fatal("distinct names interned to the same key")
	}
	// A hash publisher's decimal token is adopted verbatim.
	if got := tr.Resolve("42"); got != vstore.Key(42) {
		t.Fatalf("Resolve(42) = %d", got)
	}
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
		if got := p1.Versions[wTok]; got != 0 {
			t.Fatalf("%s: first write version = %d, want 0 (version-1)", policy, got)
		}
		if got := p1.Versions[rTok]; got != 0 {
			t.Fatalf("%s: read-only version = %d, want 0", policy, got)
		}
		p1.Release()
		p1.Release() // idempotent

		p2, err := tr.Plan(nil, []string{write})
		if err != nil {
			t.Fatal(err)
		}
		if got := p2.Versions[wTok]; got != 1 {
			t.Fatalf("%s: second write version = %d, want 1", policy, got)
		}
		p2.Release()
	}
}

func TestEncodeDeps(t *testing.T) {
	s := newStore(t, 16)
	hash, _ := New("hash", s, false)
	dvv, _ := New("dvv", s, false)

	var m wire.Message
	hash.EncodeDeps(&m, map[string]uint64{"5": 3})
	if m.Dependencies["5"] != 3 || m.Dots != nil {
		t.Fatalf("hash encode: deps=%v dots=%v", m.Dependencies, m.Dots)
	}

	m = wire.Message{}
	dvv.EncodeDeps(&m, map[string]uint64{"app/posts/id/1": 3})
	if m.Dots["app/posts/id/1"] != 3 {
		t.Fatalf("dvv encode: dots=%v", m.Dots)
	}
	if m.Dependencies == nil || len(m.Dependencies) != 0 {
		t.Fatalf("dvv encode must leave an empty Dependencies map, got %v", m.Dependencies)
	}

	m = wire.Message{}
	dvv.EncodeDeps(&m, nil)
	if m.Dots != nil {
		t.Fatalf("dvv encode of no deps set Dots = %v", m.Dots)
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
				if err := subStore.SetOps(sub.Resolve(tok), c.Ops); err != nil {
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
