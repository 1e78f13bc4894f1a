package wire

import (
	"encoding/json"
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
// comparable value: the envelope, the dependencies under their numeric
// keys, and per operation the object's token and version and the
// attributes its subscription gets to see.
type applied struct {
	App, GlobalDep  string
	Generation, Seq uint64
	Recovered       bool
	PublishedAt     time.Time
	Deps            map[uint64]uint64
	DepsErr         bool
	Dots, External  map[string]uint64
	Ops             []appliedOp
}

type appliedOp struct {
	Verb      OpKind
	Types     []string
	ID        string
	Object    string // the token, whichever form it was kept in
	Version   uint64
	Versioned bool
	Attrs     map[string]any
}

// apply digests m for a subscriber that resolves its sinks with resolve:
// attributes a projected decode already chose stand as they are, those of
// an operation decoded in full are filtered here, through the same sink.
func apply(m *Message, resolve Resolver) applied {
	out := applied{
		App: m.App, GlobalDep: m.GlobalDep, Generation: m.Generation, Seq: m.Seq,
		Recovered: m.Recovered, PublishedAt: m.PublishedAt,
		Dots: orNil(m.Dots), External: orNil(m.External),
	}
	deps, err := m.Deps()
	out.Deps, out.DepsErr = orNil(deps), err != nil
	for s := range m.Dependencies {
		if k, err := ParseDepKey(s); err == nil && DepKey(k) != s {
			out.Deps = nil // two spellings of one key: which one Deps keeps is map order
		}
	}
	for i := range m.Operations {
		op := &m.Operations[i]
		o := appliedOp{Verb: op.Operation, Types: op.Types, ID: op.ID, Object: op.ObjectDep}
		if len(o.Types) == 0 {
			o.Types = nil
		}
		if k, ok := op.ObjectKey(); ok {
			o.Object = DepKey(k)
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

// checkProjectedMatchesFull is the differential property: the projected
// decode takes the encoding/json fallback on exactly the payloads the
// full one does — but for a dependency key spelled like no encoder
// spells it (errDepKey) — and what applying its result reads equals what
// applying the full decode's, filtered, reads.
func checkProjectedMatchesFull(t *testing.T, payload []byte, resolve Resolver) {
	t.Helper()
	fullErr := decodeFast(payload, new(Message), nil)
	projErr := decodeFast(payload, new(Message), resolve)
	if projErr != errDepKey && (projErr == nil) != (fullErr == nil) {
		t.Fatalf("fast path: projected decode says %v, full decode says %v for %q", projErr, fullErr, payload)
	}
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
// by file name: payloads the encoder never produces but the decoder has
// to treat like encoding/json does — keys out of order, duplicate keys,
// nulls, unknown keys, tokens that are not canonical.
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
// golden corpus and the benchmark's shapes.
func projectionSeeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, m := range goldenMessages() {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
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
// strings, and where the dependency tokens went.
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
	if k, ok := comment.ObjectKey(); !ok || k != 8 || comment.ObjectDep != "" || len(m.Dependencies) != 0 {
		t.Errorf("decimal tokens were kept as strings: key %d %v, ObjectDep %q, Dependencies %v", k, ok, comment.ObjectDep, m.Dependencies)
	}
	if deps, err := m.Deps(); err != nil || !reflect.DeepEqual(deps, map[uint64]uint64{8: 1, 9: 2}) {
		t.Errorf("Deps = %v, %v", deps, err)
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
	if _, ok := op.ObjectKey(); ok || op.ObjectDep != "pub4/posts/id/7" {
		t.Errorf("a DVV name token was not kept as the string it is: %q", op.ObjectDep)
	}
	if v, ok := m.ObjectVersion(op); !ok || v != 4 {
		t.Errorf("ObjectVersion through dots = %d, %v, want 4", v, ok)
	}
	ReleaseMessage(m)

	for _, name := range []string{"unsubscribed-model", "unsubscribed-origin"} {
		m = decode(name)
		if s, projected := m.Operations[0].Sink(); s != nil || !projected || m.Operations[0].Attributes != nil {
			t.Errorf("%s: sink %v, projected %v, attributes %v; want none, true, none", name, s, projected, m.Operations[0].Attributes)
		}
		ReleaseMessage(m)
	}

	// Out of order: decoded in full, for the subscriber to filter.
	for _, name := range []string{"attributes-before-types", "app-after-operations", "types-twice"} {
		m = decode(name)
		if _, projected := m.Operations[0].Sink(); projected || len(m.Operations[0].Attributes) != 2 {
			t.Errorf("%s: projected %v, attributes %v; want a full decode", name, projected, m.Operations[0].Attributes)
		}
		ReleaseMessage(m)
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
