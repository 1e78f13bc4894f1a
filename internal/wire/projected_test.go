package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// keySink is a test subscription: the attribute keys it names, and
// whether it is an observer (wants a destroy's attributes too).
type keySink struct {
	keys     map[string]string
	observer bool
}

func newKeySink(observer bool, keys ...string) *keySink {
	s := &keySink{keys: make(map[string]string, len(keys)), observer: observer}
	for _, k := range keys {
		s.keys[k] = k
	}
	return s
}

func (s *keySink) Wants(verb OpKind) bool { return s.observer || verb != OpDestroy }

func (s *keySink) Key(raw []byte) (string, bool) {
	k, ok := s.keys[string(raw)]
	return k, ok
}

// keyResolver resolves origin → model → sink, most-derived type first.
func keyResolver(subs map[string]map[string]*keySink) Resolver {
	return func(app string, types []string) Sink {
		for _, name := range types {
			if s := subs[app][name]; s != nil {
				return s
			}
		}
		return nil
	}
}

// mixedSinks subscribes the way the differential tests need: subsets of
// what the golden messages publish, a persisted model and an observer,
// a polymorphic chain of which only the ancestor is subscribed, and two
// origins publishing the same model name with different attributes.
func mixedSinks() Resolver {
	return keyResolver(map[string]map[string]*keySink{
		"pub":   {"Post": newKeySink(false, "body", "rev"), "Comment": newKeySink(true, "post_id", "t")},
		"other": {"Post": newKeySink(true, "title")},
		"pub1":  {"Base": newKeySink(false, "total")},
		"pub3":  {"User": newKeySink(false, "interests")},
		"pub4":  {"Base": newKeySink(false, "body")},
		"deep":  {"D": newKeySink(false, "obj", "strs", "absent")},
		"nums":  {"N": newKeySink(false, "pi", "u", "big")},
		"a":     {"T": newKeySink(true, "k")},
	})
}

// applied is what applying a decoded message reads of it, in one
// comparable value: the envelope, the dependencies, and per operation
// the object's token and version and the attributes its subscription
// gets to see.
type applied struct {
	App             string
	Generation, Seq uint64
	Recovered       bool
	PublishedAt     time.Time
	Deps, External  []Dep
	GlobalDep       *Token
	Ops             []appliedOp
}

type appliedOp struct {
	Verb      OpKind
	Types     []string
	ID        string
	Object    Token
	Version   uint64
	Versioned bool
	Attrs     map[string]any
}

// apply digests m for a subscriber that resolves its sinks with resolve:
// attributes a projected decode already chose stand as they are, those of
// an operation decoded in full are filtered here, through the same sink.
func apply(m *Message, resolve Resolver) applied {
	out := applied{
		App: m.App, Generation: m.Generation, Seq: m.Seq, Recovered: m.Recovered, PublishedAt: m.PublishedAt,
		Deps: orNilSlice(m.Deps), External: orNilSlice(m.External), GlobalDep: m.GlobalDep,
	}
	for i := range m.Operations {
		op := &m.Operations[i]
		o := appliedOp{Verb: op.Operation, Types: op.Types, ID: op.ID, Object: op.Object}
		if len(o.Types) == 0 {
			o.Types = nil
		}
		o.Version, o.Versioned = m.ObjectVersion(op)
		attrs := op.Attributes
		if _, projected := op.Sink(); !projected && attrs != nil {
			sink := resolve(m.App, op.Types)
			attrs = map[string]any{}
			if sink != nil && sink.Wants(op.Operation) {
				for k, v := range op.Attributes {
					if name, ok := sink.Key([]byte(k)); ok {
						attrs[name] = v
					}
				}
			}
		}
		o.Attrs = orNil(attrs)
		out.Ops = append(out.Ops, o)
	}
	return out
}

func orNil[K comparable, V any](m map[K]V) map[K]V {
	if len(m) == 0 {
		return nil
	}
	return m
}

func orNilSlice[E any](s []E) []E {
	if len(s) == 0 {
		return nil
	}
	return s
}

// checkProjectedMatchesFull is the differential property: the projected
// decode refuses exactly the payloads the full one refuses, and what
// applying its result reads equals what applying the full decode's,
// filtered, reads.
func checkProjectedMatchesFull(t *testing.T, payload []byte, resolve Resolver) {
	t.Helper()
	full, err := Unmarshal(payload)
	proj, perr := UnmarshalProjected(payload, resolve)
	if (err == nil) != (perr == nil) {
		t.Fatalf("projected decode says %v, full decode says %v for %q", perr, err, payload)
	}
	if err != nil {
		return
	}
	defer ReleaseMessage(proj)
	if got, want := apply(proj, resolve), apply(full, resolve); !reflect.DeepEqual(got, want) {
		t.Fatalf("applying %q\nprojected: %+v\n     full: %+v", payload, got, want)
	}
}

// projectionCases reads the committed seed corpus of FuzzProjectedDecode
// by file name: payloads that pick out the sinks, and payloads the
// encoder never produces, which both decodes refuse — keys out of order,
// duplicate keys, nulls, unknown keys, tokens that are not canonical.
func projectionCases(t testing.TB) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzProjectedDecode")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no seed corpus in %s: %v", dir, err)
	}
	cases := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		payload, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", e.Name(), err)
		}
		cases[e.Name()] = payload
	}
	return cases
}

// projectionSeeds are the well-formed payloads of the property: the
// golden corpus, the parent's payloads and the benchmark's shapes.
func projectionSeeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, m := range goldenMessages() {
		b, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	for _, p := range parentPayloads {
		out = append(out, []byte(p))
	}
	return append(out, liveStream(6)...)
}

// TestProjectedDecodeMatchesFull runs the differential property over the
// well-formed seeds and the hostile cases, for both sets of subscribers.
func TestProjectedDecodeMatchesFull(t *testing.T) {
	payloads := projectionSeeds(t)
	for _, p := range projectionCases(t) {
		payloads = append(payloads, []byte(p))
	}
	for _, payload := range payloads {
		checkProjectedMatchesFull(t, payload, mixedSinks())
		checkProjectedMatchesFull(t, payload, benchSinks())
	}
}

// FuzzProjectedDecode is the same property on arbitrary input; go test
// adds the committed corpus under testdata/fuzz to the seeds by itself.
func FuzzProjectedDecode(f *testing.F) {
	for _, payload := range projectionSeeds(f) {
		f.Add(payload)
	}
	resolve := mixedSinks()
	f.Fuzz(func(t *testing.T, data []byte) { checkProjectedMatchesFull(t, data, resolve) })
}

// TestProjectedDecodeWhatItKeeps pins the contract core relies on: which
// sink an operation reports, which attributes are there, under whose
// strings, and the dependency tokens.
func TestProjectedDecodeWhatItKeeps(t *testing.T) {
	resolve, cases := mixedSinks(), projectionCases(t)
	decode := func(name string) *Message {
		t.Helper()
		m, err := UnmarshalProjected([]byte(cases[name]), resolve)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := decode("observer-destroy")
	comment, post := &m.Operations[0], &m.Operations[1]
	if s, projected := comment.Sink(); !projected || s != resolve("pub", []string{"Comment"}) {
		t.Errorf("Comment destroy reports sink %v, projected %v", s, projected)
	}
	if want := map[string]any{"post_id": "p1", "t": 5.0}; !reflect.DeepEqual(comment.Attributes, want) {
		t.Errorf("observer's destroy kept %v, want %v", comment.Attributes, want)
	}
	if _, projected := post.Sink(); !projected || post.Attributes != nil {
		t.Errorf("persisted model's destroy kept %v (projected %v), want nothing", post.Attributes, projected)
	}
	if comment.Object != (Token{Key: 8}) {
		t.Errorf("object token = %v, want hashed key 8", comment.Object)
	}
	if want := []Dep{{Token{Key: 8}, 1}, {Token{Key: 9}, 2}}; !reflect.DeepEqual(m.Deps, want) {
		t.Errorf("Deps = %v, want %v", m.Deps, want)
	}
	if v, ok := m.ObjectVersion(post); !ok || v != 3 {
		t.Errorf("ObjectVersion = %d, %v, want 3", v, ok)
	}
	ReleaseMessage(m)

	m = decode("ancestor-only")
	op := &m.Operations[0]
	if s, _ := op.Sink(); s != resolve("pub4", []string{"Base"}) || !reflect.DeepEqual(op.Attributes, map[string]any{"body": "b"}) {
		t.Errorf("chain %v resolved to sink %v keeping %v", op.Types, s, op.Attributes)
	}
	if op.Object != (Token{Name: "pub4/posts/id/7"}) {
		t.Errorf("object token = %v, want the DVV name", op.Object)
	}
	if v, ok := m.ObjectVersion(op); !ok || v != 4 {
		t.Errorf("ObjectVersion through a name = %d, %v, want 4", v, ok)
	}
	ReleaseMessage(m)

	for _, name := range []string{"unsubscribed-model", "unsubscribed-origin"} {
		m = decode(name)
		if s, projected := m.Operations[0].Sink(); s != nil || !projected || m.Operations[0].Attributes != nil {
			t.Errorf("%s: sink %v, projected %v, attributes %v; want none, true, none", name, s, projected, m.Operations[0].Attributes)
		}
		ReleaseMessage(m)
	}

	// Out of order: refused.
	for _, name := range []string{"attributes-before-types", "app-after-operations", "types-twice"} {
		if m, err := UnmarshalProjected([]byte(cases[name]), resolve); err == nil {
			t.Errorf("%s: decoded to %#v, want an error", name, m)
		}
	}
}

// TestProjectedDecodeNeverBuildsTheRest: a subscriber that names a
// subset of the published attributes pays nothing for the others — a
// 4 KB nested attribute nobody subscribed to costs no allocation at all,
// on a subscribed model and on one nobody subscribed to.
func TestProjectedDecodeNeverBuildsTheRest(t *testing.T) {
	skipUnderRace(t)
	var blob strings.Builder
	blob.WriteString(`{"list":[`)
	for i := 0; blob.Len() < 4096; i++ {
		fmt.Fprintf(&blob, `{"k%d":"value %d","n":%d.5,"ok":true},`, i, i, i)
	}
	blob.WriteString(`null]}`)
	resolve := mixedSinks()
	for _, model := range []string{"Post", "User"} {
		lean := fmt.Sprintf(`{"app":"pub","operations":[{"operation":"update","types":[%q],"id":"p1","attributes":{"body":"b"},"object_dep":"7"}],"dependencies":{"7":1}}`, model)
		fat := strings.Replace(lean, `"body":"b"`, `"blob":`+blob.String()+`,"body":"b"`, 1)
		allocs := func(payload string) float64 {
			return testing.AllocsPerRun(100, func() {
				m, err := UnmarshalProjected([]byte(payload), resolve)
				if err != nil {
					t.Fatal(err)
				}
				if _, there := m.Operations[0].Attributes["blob"]; there {
					t.Fatal("the unsubscribed attribute was built")
				}
				ReleaseMessage(m)
			})
		}
		if with, without := allocs(fat), allocs(lean); with != without {
			t.Errorf("%s: %v allocs with a %d-byte unsubscribed attribute, %v without", model, with, blob.Len(), without)
		}
	}
}
