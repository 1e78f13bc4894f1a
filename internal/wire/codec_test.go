package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// goldenMessages are the equivalence corpus: the Fig 6(b) sample plus
// every envelope and attribute edge the codec special-cases.
func goldenMessages() map[string]*Message {
	return map[string]*Message{
		"fig6b": sampleMessage(),
		"external-deps": {
			App: "pub1",
			Operations: []Operation{{
				Operation: OpCreate, Types: []string{"Order", "Base"}, ID: "7",
				Attributes: map[string]any{"total": int64(1299), "open": true},
				Object:     Token{Key: 9},
			}},
			Deps:        []Dep{{Token{Key: 10}, 3}, {Token{Key: 9}, 1}},
			External:    []Dep{{Token{Key: 3}, 1}, {Token{Key: 77}, 12}},
			PublishedAt: time.Date(2026, 1, 2, 3, 4, 5, 678900000, time.UTC),
			Generation:  3,
			Seq:         12,
		},
		"global-dep": {
			App:         "pub2",
			Operations:  []Operation{{Operation: OpUpdate, Types: []string{"User"}, ID: "1", Object: Token{Key: 2}}},
			Deps:        []Dep{{Token{Key: 0}, 1}, {Token{Key: 2}, 5}},
			PublishedAt: time.Date(2026, 6, 1, 0, 0, 0, 0, time.FixedZone("X", 3600)),
			Generation:  1,
			GlobalDep:   &Token{Key: 18446744073709551615},
			Seq:         1,
			Recovered:   true,
		},
		"global-key-0": {
			App:         "pub2",
			Operations:  []Operation{{Operation: OpUpdate, Types: []string{"User"}, ID: "1", Object: Token{Key: 0}}},
			Deps:        []Dep{{Token{Key: 0}, 1}},
			PublishedAt: time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
			GlobalDep:   &Token{},
			Seq:         2,
		},
		"destroy-no-attrs": {
			App: "pub3",
			Operations: []Operation{
				{Operation: OpDestroy, Types: []string{"User", "Model"}, ID: "100", Object: Token{Key: 7341}},
				{Operation: OpDestroy, Types: []string{"User"}, ID: "101", Attributes: map[string]any{}, Object: Token{Key: 7342}},
			},
			Deps:        []Dep{{Token{Key: 7341}, 42}},
			PublishedAt: time.Date(2014, 10, 11, 7, 59, 0, 1, time.UTC),
			Generation:  9,
			Seq:         100,
		},
		"nasty-strings": {
			App: "päb<script>&amp;\n\t\"q\"\\",
			Operations: []Operation{{
				Operation: OpUpdate,
				Types:     []string{"Ty\u2028pe", "\u212Aelvin", "ſmall"},
				ID:        "id\x00\x1f", // control bytes
				Attributes: map[string]any{
					"":        "empty key",
					"uni":     "héllо δ 世界 \U0001F600",
					"esc":     "a\"b\\c\u2029d<e>f&g",
					"badutf8": string([]byte{0x61, 0xff, 0xfe, 0x62}),
				},
				Object: Token{Name: "päb/ty pes/id/<1>&"},
			}},
			Deps:        []Dep{{Token{Key: 1}, 1}, {Token{Name: "päb/ty pes/id/<1>&"}, 2}, {Token{Name: "päb/ty pes/id/\u2028"}, 3}},
			PublishedAt: time.Unix(0, 0).UTC(),
			Generation:  1,
			Seq:         2,
		},
		"numbers": {
			App: "nums",
			Operations: []Operation{{
				Operation: OpCreate, Types: []string{"N"}, ID: "n", Object: Token{Key: 5},
				Attributes: map[string]any{
					"f0": 0.0, "fneg0": math.Copysign(0, -1),
					"tiny": 1e-7, "small": 1e-6, "big": 1e21, "edge": 9.999999999999998e20,
					"pi": 3.141592653589793, "neg": -2.5e-9,
					"i": int64(-9007199254740993), "u": uint64(math.MaxUint64),
					"i32": int32(-7), "f32": float32(1.5e-7), "int": int(42),
				},
			}},
			Deps:        []Dep{{Token{Key: 5}, 1}},
			PublishedAt: time.Date(2026, 8, 6, 1, 2, 3, 0, time.UTC),
			Generation:  2,
			Seq:         3,
		},
		"nested-attrs": {
			App: "deep",
			Operations: []Operation{{
				Operation: OpUpdate, Types: []string{"D"}, ID: "d", Object: Token{Key: 8},
				Attributes: map[string]any{
					"list":  []any{nil, true, false, "x", 1.5, []any{}, map[string]any{"k": "v"}},
					"obj":   map[string]any{"b": map[string]any{"c": []any{int64(1), int64(2)}}, "a": nil},
					"strs":  []string{"p", "q<r>"},
					"empty": map[string]any{},
				},
			}},
			Deps:        []Dep{{Token{Key: 8}, 2}},
			PublishedAt: time.Date(2026, 8, 6, 1, 2, 3, 999999999, time.UTC),
			Generation:  2,
			Seq:         4,
		},
		"dvv-dots": {
			App: "pub4",
			Operations: []Operation{{
				Operation: OpUpdate, Types: []string{"Post", "Base"}, ID: "7",
				Attributes: map[string]any{"body": "b"},
				Object:     Token{Name: "pub4/posts/id/7"},
			}},
			Deps:        []Dep{{Token{Name: "pub4/posts/id/7"}, 3}, {Token{Name: "pub4/users/id/1"}, 1}},
			External:    []Dep{{Token{Key: 12}, 2}, {Token{Name: "pub9/users/id/2"}, 4}},
			PublishedAt: time.Date(2026, 8, 7, 1, 2, 3, 0, time.UTC),
			Generation:  2,
			GlobalDep:   &Token{Name: "pub4/global"},
			Seq:         9,
		},
		"nil-and-empty": {
			App:         "",
			Operations:  []Operation{{Operation: "", Types: nil, ID: "", Attributes: nil}, {Types: []string{}}},
			PublishedAt: time.Time{},
			Generation:  0,
			Seq:         0,
		},
		"nil-operations": {
			App:         "x",
			Operations:  nil,
			PublishedAt: time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC),
		},
	}
}

// mirror is a message as encoding/json sees it, the codec's test oracle:
// the document the encoder writes, each dependency list a map keyed by
// token text — the form the message held in memory before tokens were
// typed.
type mirror struct {
	App          string            `json:"app"`
	Operations   []mirrorOp        `json:"operations"`
	Dependencies map[string]uint64 `json:"dependencies"`
	External     map[string]uint64 `json:"external_dependencies,omitempty"`
	Dots         map[string]uint64 `json:"dots,omitempty"`
	PublishedAt  time.Time         `json:"published_at"`
	Generation   uint64            `json:"generation"`
	GlobalDep    string            `json:"global_dep,omitempty"`
	Seq          uint64            `json:"seq"`
	Recovered    bool              `json:"recovered,omitempty"`
}

type mirrorOp struct {
	Operation  OpKind         `json:"operation"`
	Types      []string       `json:"types"`
	ID         string         `json:"id"`
	Attributes map[string]any `json:"attributes,omitempty"`
	ObjectDep  string         `json:"object_dep"`
}

// text is a token's text, as the test renders it.
func text(t Token) string {
	if t.Name != "" {
		return t.Name
	}
	return strconv.FormatUint(t.Key, 10)
}

// mirrorOf renders m as the mirror encoding/json marshals to the bytes
// Marshal writes.
func mirrorOf(m *Message) *mirror {
	mm := &mirror{
		App: m.App, Dependencies: map[string]uint64{}, PublishedAt: m.PublishedAt,
		Generation: m.Generation, Seq: m.Seq, Recovered: m.Recovered,
	}
	if m.Operations != nil {
		mm.Operations = make([]mirrorOp, len(m.Operations))
	}
	for i, op := range m.Operations {
		mm.Operations[i] = mirrorOp{op.Operation, op.Types, op.ID, op.Attributes, text(op.Object)}
	}
	for _, d := range m.Deps {
		if d.Name == "" {
			mm.Dependencies[text(d.Token)] = d.Version
		} else {
			mm.Dots = addDep(mm.Dots, d)
		}
	}
	for _, d := range m.External {
		mm.External = addDep(mm.External, d)
	}
	if m.GlobalDep != nil {
		mm.GlobalDep = text(*m.GlobalDep)
	}
	return mm
}

func addDep(m map[string]uint64, d Dep) map[string]uint64 {
	if m == nil {
		m = map[string]uint64{}
	}
	m[text(d.Token)] = d.Version
	return m
}

// stdDecode is encoding/json's reading of a payload, with the nil-or-
// empty distinctions the typed form does not keep folded away.
func stdDecode(payload []byte) (*mirror, error) {
	var mm mirror
	if err := json.Unmarshal(payload, &mm); err != nil {
		return nil, err
	}
	if mm.Dependencies == nil {
		mm.Dependencies = map[string]uint64{}
	}
	if len(mm.External) == 0 {
		mm.External = nil
	}
	if len(mm.Dots) == 0 {
		mm.Dots = nil
	}
	return &mm, nil
}

// TestMarshalGoldenEquivalence pins the tentpole guarantee: the
// hand-rolled encoder emits byte-for-byte what encoding/json emits for
// the message's mirror.
func TestMarshalGoldenEquivalence(t *testing.T) {
	for name, m := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(mirrorOf(m))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder diverges\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// checkDecode is the decoder's contract on a payload it accepts:
// encoding/json reads the same values into the mirror, Marshal writes
// the payload json.Marshal makes of them, and that payload decodes and
// re-encodes to itself.
func checkDecode(t *testing.T, payload []byte, m *Message) {
	t.Helper()
	std, err := stdDecode(payload)
	if err != nil {
		t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", payload, err)
	}
	if got := mirrorOf(m); !reflect.DeepEqual(got, std) {
		t.Fatalf("decoders diverge on %q\n    got: %#v\n   std: %#v", payload, got, std)
	}
	want, wantErr := json.Marshal(std)
	got, gotErr := Marshal(m)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("re-encode error mismatch on %q: %v, encoding/json %v", payload, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encode diverges\n got: %s\nwant: %s", got, want)
	}
	again, err := Unmarshal(got)
	if err != nil {
		t.Fatalf("decoder refuses the encoder's %s: %v", got, err)
	}
	if re, err := Marshal(again); err != nil || !bytes.Equal(re, got) {
		t.Fatalf("re-decoding %s changes the message to %s (%v)", got, re, err)
	}
}

// TestUnmarshalGoldenEquivalence decodes every golden payload and checks
// it against encoding/json.
func TestUnmarshalGoldenEquivalence(t *testing.T) {
	for name, m := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			payload, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(payload)
			if err != nil {
				t.Fatalf("decoder refuses %s: %v", payload, err)
			}
			checkDecode(t, payload, got)
		})
	}
}

// TestUnmarshalRefusesOtherForms feeds payloads outside the one form the
// encoder writes — another key order, whitespace, duplicates, nulls,
// case-folded or unknown keys, tokens of the wrong form or out of order,
// nesting past maxDepth — and checks both decoders refuse each with an
// error (encoding/json, which read them before, is no longer asked).
func TestUnmarshalRefusesOtherForms(t *testing.T) {
	payloads := map[string]string{
		"empty":              ``,
		"null":               `null`,
		"not-an-object":      `[1,2]`,
		"reordered":          `{"seq":9,"generation":1,"published_at":"2014-10-11T07:59:00Z","dependencies":{"7341":42},"operations":[{"object_dep":"7341","id":"100","types":["User"],"operation":"update"}],"app":"pub3"}`,
		"unknown-keys":       `{"app":"a","version":2,"operations":[],"dependencies":{}}`,
		"case-folded":        `{"APP":"a","dependencies":{}}`,
		"duplicates":         `{"app":"first","app":"second","dependencies":{}}`,
		"nulls":              `{"app":null,"operations":[],"dependencies":{}}`,
		"null-dependencies":  `{"app":"a","operations":[],"dependencies":null}`,
		"whitespace":         `{"app" : "a","dependencies":{}}`,
		"surrogate-escape":   `{"app":"\ud800","dependencies":{}}`,
		"trailing":           `{"app":"a"} trailing`,
		"leading-zero-key":   `{"app":"a","operations":[],"dependencies":{"007":3}}`,
		"key-past-uint64":    `{"app":"a","operations":[],"dependencies":{"18446744073709551616":1}}`,
		"name-in-deps":       `{"app":"a","operations":[],"dependencies":{"a/ts/id/1":1}}`,
		"decimal-in-dots":    `{"app":"a","operations":[],"dependencies":{},"dots":{"7":1}}`,
		"neither-form":       `{"app":"a","operations":[],"dependencies":{},"external_dependencies":{"seven":1}}`,
		"object-dep-empty":   `{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","object_dep":""}],"dependencies":{}}`,
		"object-dep-007":     `{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","object_dep":"007"}],"dependencies":{}}`,
		"global-dep-empty":   `{"app":"a","operations":[],"dependencies":{},"global_dep":""}`,
		"deps-out-of-order":  `{"app":"a","operations":[],"dependencies":{"9":1,"10":1}}`,
		"deps-twice":         `{"app":"a","operations":[],"dependencies":{"7":1,"7":4}}`,
		"dots-out-of-order":  `{"app":"a","operations":[],"dependencies":{},"dots":{"b/x":1,"a/x":1}}`,
		"external-unordered": `{"app":"a","operations":[],"dependencies":{},"external_dependencies":{"a/x":1,"12":1}}`,
		"value-past-uint64":  `{"app":"a","operations":[],"dependencies":{"7":18446744073709551616}}`,
		"attribute-range":    `{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":{"big":1e999},"object_dep":"1"}],"dependencies":{}}`,
		"too-deep":           `{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":` + strings.Repeat(`{"a":`, 200) + `1` + strings.Repeat(`}`, 200) + `,"object_dep":"1"}],"dependencies":{}}`,
	}
	for name, p := range payloads {
		if m, err := Unmarshal([]byte(p)); err == nil {
			t.Errorf("%s: Unmarshal accepted %q: %#v", name, p, m)
		}
		if m, err := UnmarshalProjected([]byte(p), mixedSinks()); err == nil {
			t.Errorf("%s: UnmarshalProjected accepted %q", name, p)
			ReleaseMessage(m)
		}
	}
}

// TestParseDecimal holds the token parser to strconv on canonical
// decimals, and to allocating nothing, also for a name.
func TestParseDecimal(t *testing.T) {
	for _, tok := range []string{"0", "7", "7341", "18446744073709551615", "18446744073709551616",
		"99999999999999999999", "00", "01", "", "-1", "+1", "1a", "1_0", "pub/t/id/1"} {
		want, err := strconv.ParseUint(tok, 10, 64)
		wantOK := err == nil && (len(tok) == 1 || tok[0] != '0')
		if got, ok := parseDecimal([]byte(tok)); ok != wantOK || ok && got != want {
			t.Errorf("parseDecimal(%q) = %d, %v; want %d, %v", tok, got, ok, want, wantOK)
		}
	}
	name := []byte("pub/t/id/1")
	if n := testing.AllocsPerRun(100, func() { parseDecimal(name) }); n != 0 {
		t.Errorf("parseDecimal of a name: %v allocs, want 0", n)
	}
}

// TestUnmarshalOldFormats feeds hand-written payloads a previous version
// of the system could have produced — different key order, unknown
// fields, case-folded keys, duplicate keys, nulls, whitespace, escapes.
// Both decoders refuse each one outside the one form the encoder writes;
// the two inside it decode as encoding/json reads them.
func TestUnmarshalOldFormats(t *testing.T) {
	payloads := map[string]struct {
		p  string
		ok bool
	}{
		"reordered":     {`{"seq":9,"generation":1,"published_at":"2014-10-11T07:59:00Z","dependencies":{"7341":42},"operations":[{"object_dep":"7341","id":"100","types":["User"],"operation":"update"}],"app":"pub3"}`, false},
		"unknown-keys":  {`{"app":"a","version":2,"extra":{"deep":[1,2,{"x":null}]},"operations":[{"operation":"create","types":["T"],"id":"1","object_dep":"0","meta":"skip"}],"dependencies":{},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"case-folded":   {`{"APP":"a","Operations":[{"OPERATION":"update","Types":["T"],"Id":"1","ATTRIBUTES":{"k":1},"Object_Dep":"0"}],"DEPENDENCIES":{"1":2},"Published_At":"2026-01-01T00:00:00Z","GENERATION":3,"SEQ":4,"RECOVERED":true}`, false},
		"kelvin-fold":   {`{"app":"a","se` + "\u212A" + `":7,"ſeq":8}`, false},
		"duplicates":    {`{"app":"first","app":"second","dependencies":{"1":1},"dependencies":{"2":2},"operations":[{"operation":"create","types":["A","B"],"id":"x","object_dep":"1"}],"operations":[{"id":"y"}],"seq":1,"seq":2}`, false},
		"nulls":         {`{"app":null,"operations":[{"operation":null,"types":null,"id":null,"attributes":null,"object_dep":null},null],"dependencies":null,"external_dependencies":null,"published_at":null,"generation":null,"global_dep":null,"seq":null,"recovered":null}`, false},
		"null-dep-vals": {`{"app":"a","operations":[],"dependencies":{"1":null,"2":3},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"null-types":    {`{"app":"a","operations":[{"operation":"update","types":["A",null,"C"],"id":"1","object_dep":"0"}],"dependencies":{},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"whitespace":    {"{\n  \"app\" : \"a\" ,\r\n\t\"operations\" : [ ] ,\n \"dependencies\" : { } , \"published_at\" : \"2026-01-01T00:00:00Z\" , \"generation\" : 1 , \"seq\" : 1 }", false},
		"escapes":       {`{"app":"Aé😀\n\t\"\\\/","operations":[{"operation":"update","types":["` + "\u2028\u2029" + `"],"id":"\ud800","attributes":{"k` + "\u212A" + `":"\udfff\ud83d"},"object_dep":"0"}],"dependencies":{"1":1},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"empty-object":  {`{}`, true},
		"attr-shapes":   {`{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":{"n":-12.5e2,"z":0,"neg":-0,"exp":1E+3,"arr":[[]],"o":{"a":{"b":[true,null]}},"s":"<&>"},"object_dep":"0"}],"dependencies":{"18446744073709551615":18446744073709551615},"published_at":"2026-01-01T00:00:00.123456789+05:30","generation":18446744073709551615,"seq":1}`, true},
	}
	resolve := mixedSinks()
	for name, c := range payloads {
		t.Run(name, func(t *testing.T) {
			payload := []byte(c.p)
			got, err := Unmarshal(payload)
			if (err == nil) != c.ok {
				t.Fatalf("Unmarshal took it: %v, want %v (%v)", err == nil, c.ok, err)
			}
			checkProjectedMatchesFull(t, payload, resolve)
			if err == nil {
				checkDecode(t, payload, got)
			}
		})
	}
}

// TestSmallNumberBoxes checks the numbers on either side of the decoder's
// shared boxes (non-negative integers below 256) against encoding/json:
// the same type, value and sign, whichever way the number is written.
func TestSmallNumberBoxes(t *testing.T) {
	for _, num := range []string{"0", "255", "256", "-0", "1e2", "0.5", "300.0", "-1", "255.5", "2.55e2", "0.0"} {
		payload := `{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":{"n":` + num +
			`},"object_dep":"0"}],"dependencies":{},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`
		m, err := Unmarshal([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, []byte(payload), m)
		var want any
		if err := json.Unmarshal([]byte(num), &want); err != nil {
			t.Fatal(err)
		}
		got := m.Operations[0].Attributes["n"]
		g, ok := got.(float64)
		if w := want.(float64); !ok || g != w || math.Signbit(g) != math.Signbit(w) {
			t.Errorf("%s decodes to %#v, encoding/json gives %#v", num, got, want)
		}
	}
}

// The parent's payloads: what a publisher put on the bus before tokens
// had one in-memory form, one per tracker and dependency shape — hash,
// DVV, global mode under each, and a decorator's external dependency
// under each pairing of origin and decorator trackers. They decode and
// re-encode byte for byte.
var parentPayloads = map[string]string{
	"hash-create":    `{"app":"pub","operations":[{"operation":"create","types":["User"],"id":"u1","attributes":{"likes":3,"name":"alice"},"object_dep":"7090601257391167888"}],"dependencies":{"7090601257391167888":0},"published_at":"2026-10-20T05:38:15.148980234Z","generation":0,"seq":1}`,
	"hash-read-dep":  `{"app":"pub","operations":[{"operation":"create","types":["Post"],"id":"p1","attributes":{"author":"u1","body":"hi \u003cb\u003e"},"object_dep":"9964652715668620618"}],"dependencies":{"7090601257391167888":1,"7090604555926052521":0,"9964652715668620618":0},"published_at":"2026-10-20T05:38:15.149026778Z","generation":0,"seq":2}`,
	"hash-destroy":   `{"app":"pub","operations":[{"operation":"destroy","types":["Post"],"id":"p1","attributes":{"author":"u1","body":"hi \u003cb\u003e"},"object_dep":"9964652715668620618"}],"dependencies":{"7090601257391167888":2,"9964652715668620618":1},"published_at":"2026-10-20T05:38:15.149048121Z","generation":0,"seq":3}`,
	"dvv-create":     `{"app":"pub","operations":[{"operation":"create","types":["User"],"id":"u1","attributes":{"likes":3,"name":"alice"},"object_dep":"pub/users/id/u1"}],"dependencies":{},"dots":{"pub/users/id/u1":0},"published_at":"2026-10-20T05:38:15.149436688Z","generation":0,"seq":1}`,
	"dvv-read-dep":   `{"app":"pub","operations":[{"operation":"create","types":["Post"],"id":"p1","attributes":{"author":"u1","body":"hi \u003cb\u003e"},"object_dep":"pub/posts/id/p1"}],"dependencies":{},"dots":{"pub/posts/id/p1":0,"pub/users/id/u1":1,"pub/users/id/u2":0},"published_at":"2026-10-20T05:38:15.149460483Z","generation":0,"seq":2}`,
	"global-hash":    `{"app":"pub","operations":[{"operation":"create","types":["Post"],"id":"p1","attributes":{"author":"u1","body":"hi \u003cb\u003e"},"object_dep":"9964652715668620618"}],"dependencies":{"10207549920285455162":1,"7090601257391167888":1,"7090604555926052521":0,"9964652715668620618":0},"published_at":"2026-10-20T05:38:15.149875208Z","generation":0,"global_dep":"10207549920285455162","seq":2}`,
	"global-dvv":     `{"app":"pub","operations":[{"operation":"destroy","types":["Post"],"id":"p1","attributes":{"author":"u1","body":"hi \u003cb\u003e"},"object_dep":"pub/posts/id/p1"}],"dependencies":{},"dots":{"pub/global":2,"pub/posts/id/p1":1,"pub/users/id/u1":2},"published_at":"2026-10-20T05:38:15.150384018Z","generation":0,"global_dep":"pub/global","seq":3}`,
	"external-hash":  `{"app":"dec2","operations":[{"operation":"update","types":["User"],"id":"u1","attributes":{"interests":["x","y"]},"object_dep":"17968052649644233631"}],"dependencies":{"17968052649644233631":0},"external_dependencies":{"3650328714213610723":1},"published_at":"2026-10-20T05:38:15.151166847Z","generation":0,"seq":1}`,
	"mixed-dvv-dec":  `{"app":"dec2","operations":[{"operation":"update","types":["User"],"id":"u1","attributes":{"interests":["x","y"]},"object_dep":"dec2/users/id/u1"}],"dependencies":{},"external_dependencies":{"3650328714213610723":1},"dots":{"dec2/users/id/u1":0},"published_at":"2026-10-20T05:38:15.151875974Z","generation":0,"seq":1}`,
	"mixed-hash-dec": `{"app":"dec2","operations":[{"operation":"update","types":["User"],"id":"u1","attributes":{"interests":["x","y"]},"object_dep":"17968052649644233631"}],"dependencies":{"17968052649644233631":0},"external_dependencies":{"pub1/users/id/u1":1},"published_at":"2026-10-20T05:38:15.152666962Z","generation":0,"seq":1}`,
}

// TestParentPayloadsRoundTrip: the wire format did not change, and the
// projected decode reads the full decode's tokens.
func TestParentPayloadsRoundTrip(t *testing.T) {
	for name, p := range parentPayloads {
		t.Run(name, func(t *testing.T) {
			m, err := Unmarshal([]byte(p))
			if err != nil {
				t.Fatal(err)
			}
			checkDecode(t, []byte(p), m)
			if got, err := Marshal(m); err != nil || string(got) != p {
				t.Fatalf("re-encode (%v)\n got: %s\nwant: %s", err, got, p)
			}
			proj, err := UnmarshalProjected([]byte(p), mixedSinks())
			if err != nil {
				t.Fatal(err)
			}
			defer ReleaseMessage(proj)
			if got, want := apply(proj, mixedSinks()), apply(m, mixedSinks()); !reflect.DeepEqual(got, want) {
				t.Fatalf("projected: %+v\n     full: %+v", got, want)
			}
		})
	}
	m, err := Unmarshal([]byte(parentPayloads["mixed-hash-dec"]))
	if err != nil {
		t.Fatal(err)
	}
	want := []Dep{{Token{Name: "pub1/users/id/u1"}, 1}}
	if !reflect.DeepEqual(m.External, want) || m.Operations[0].Object != (Token{Key: 17968052649644233631}) {
		t.Fatalf("mixed tokens decode to external %v, object %v", m.External, m.Operations[0].Object)
	}
}

// TestCrossFormatDecode pins wire compatibility across the trackers: a
// pre-DVV hash-only frame (no "dots" key) and a DVV frame decode and
// re-encode byte for byte, and a pooled decode of a hash frame after DVV
// ones with external and global tokens sees none of them.
func TestCrossFormatDecode(t *testing.T) {
	oldFrame := `{"app":"pub3","operations":[{"operation":"update","types":["User"],"id":"100","object_dep":"7341"}],"dependencies":{"7341":42},"published_at":"2014-10-11T07:59:00Z","generation":9,"seq":12}`
	dvvFrame := `{"app":"pub4","operations":[{"operation":"update","types":["Post"],"id":"7","object_dep":"pub4/posts/id/7"}],"dependencies":{},"dots":{"pub4/posts/id/7":3,"pub4/users/id/1":1},"published_at":"2026-08-07T01:02:03Z","generation":2,"seq":9}`
	for _, frame := range []string{oldFrame, dvvFrame} {
		m, err := Unmarshal([]byte(frame))
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, []byte(frame), m)
		if re, err := Marshal(m); err != nil || string(re) != frame {
			t.Fatalf("frame not stable under re-encode (%v)\n got: %s\nwant: %s", err, re, frame)
		}
	}
	for range 4 {
		m, err := UnmarshalPooled([]byte(parentPayloads["global-dvv"]))
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(m)
		m, err = UnmarshalPooled([]byte(parentPayloads["mixed-dvv-dec"]))
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(m)
		m, err = UnmarshalPooled([]byte(parentPayloads["hash-destroy"]))
		if err != nil {
			t.Fatal(err)
		}
		want := []Dep{{Token{Key: 7090601257391167888}, 2}, {Token{Key: 9964652715668620618}, 1}}
		if !reflect.DeepEqual(m.Deps, want) || len(m.External) != 0 || m.GlobalDep != nil {
			t.Fatalf("stale tokens after reuse: deps %v, external %v, global %v", m.Deps, m.External, m.GlobalDep)
		}
		ReleaseMessage(m)
	}
}

// TestMarshalRefusesWhatDecodeRefuses: the encoder writes nothing the
// decoder would drop as poison — a token of the wrong form or out of
// order, an attribute nested past maxDepth.
func TestMarshalRefusesWhatDecodeRefuses(t *testing.T) {
	nest := func(depth int) any { return nestWith(depth, "leaf") }
	msg := func(mutate func(*Message)) *Message {
		m := sampleMessage()
		mutate(m)
		return m
	}
	bad := map[string]*Message{
		"not-a-name":      msg(func(m *Message) { m.Operations[0].Object = Token{Name: "seven"} }),
		"decimal-as-name": msg(func(m *Message) { m.Deps = []Dep{{Token{Name: "1234"}, 1}} }),
		"hashed-after":    msg(func(m *Message) { m.Deps = []Dep{{Token{Name: "a/x"}, 1}, {Token{Key: 1}, 1}} }),
		"out-of-order":    msg(func(m *Message) { m.Deps = []Dep{{Token{Key: 9}, 1}, {Token{Key: 10}, 1}} }),
		"twice":           msg(func(m *Message) { m.External = []Dep{{Token{Key: 9}, 1}, {Token{Key: 9}, 2}} }),
		"global-bad":      msg(func(m *Message) { m.GlobalDep = &Token{Name: "global"} }),
		// Bad UTF-8 in a name would go out as U+FFFD: "a/\xff" sorts
		// after "a/😀" by its bytes and before it as read back, two bad
		// names would read back as one, and an object as another.
		"bad-utf8-order":  msg(func(m *Message) { m.Deps = []Dep{{Token{Name: "a/😀"}, 1}, {Token{Name: "a/\xff"}, 1}} }),
		"bad-utf8-twice":  msg(func(m *Message) { m.Deps = []Dep{{Token{Name: "a/\xfe"}, 1}, {Token{Name: "a/\xff"}, 1}} }),
		"bad-utf8-object": msg(func(m *Message) { m.Operations[0].Object = Token{Name: "a/\xff"} }),
		"200-deep":        msg(func(m *Message) { m.Operations[0].Attributes = map[string]any{"x": nest(200)} }),
		"list-past":       msg(func(m *Message) { m.Operations[0].Attributes = map[string]any{"x": nestWith(maxDepth, []any{1})} }),
		"strings-past":    msg(func(m *Message) { m.Operations[0].Attributes = map[string]any{"x": nestWith(maxDepth, []string{"s"})} }),
		"exotic-past": msg(func(m *Message) {
			m.Operations[0].Attributes = map[string]any{"x": []map[string]any{nest(maxDepth).(map[string]any)}}
		}),
	}
	for name, m := range bad {
		if b, err := Marshal(m); err == nil {
			_, derr := Unmarshal(b)
			t.Errorf("%s: Marshal wrote %q (decode: %v)", name, b, derr)
		}
	}
	// At the bound both sides take it.
	for _, v := range []any{nest(maxDepth), nestWith(maxDepth-1, []string{"s"}), nestWith(maxDepth-1, []any{1}), nestWith(maxDepth, []any{}),
		[]map[string]any{nest(maxDepth - 1).(map[string]any)}} {
		m := msg(func(m *Message) { m.Operations[0].Attributes = map[string]any{"x": v} })
		b, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(b); err != nil {
			t.Fatalf("a %d-deep attribute encodes and does not decode: %v", maxDepth, err)
		}
	}
}

// nestWith wraps leaf in depth-1 objects: as an attribute value, leaf
// sits at depth and its elements at depth+1.
func nestWith(depth int, leaf any) any {
	v := leaf
	for range depth - 1 {
		v = map[string]any{"a": v}
	}
	return v
}

// TestQuickTokenRoundTrip is the property of the one form: for messages
// that mix hashed keys and names among the dependencies, external tokens
// of both forms, a present or absent global token and object tokens of
// both forms, Marshal writes what encoding/json makes of the mirror, and
// the full and the projected decode read back the same tokens.
func TestQuickTokenRoundTrip(t *testing.T) {
	name := func(s string) string { return "pub/t/id/" + s }
	prop := func(keys []uint64, names []string, extKeys []uint64, extNames []string, global uint64, globalForm uint8, objKey uint64, objName string, objIsName bool) bool {
		var deps, ext []Dep
		for i, k := range keys {
			deps = append(deps, Dep{Token{Key: k % 64}, uint64(i)}) // small keys collide: SetDeps merges
		}
		for i, n := range names {
			deps = append(deps, Dep{Token{Name: name(n)}, uint64(i)})
		}
		for i, k := range extKeys {
			ext = append(ext, Dep{Token{Key: k}, uint64(i)})
		}
		for i, n := range extNames {
			ext = append(ext, Dep{Token{Name: name(n)}, uint64(i)})
		}
		obj := Token{Key: objKey}
		if objIsName {
			obj = Token{Name: name(objName)}
		}
		m := &Message{
			App:         "pub",
			Operations:  []Operation{{Operation: OpUpdate, Types: []string{"Post"}, ID: "1", Attributes: map[string]any{"body": "b"}, Object: obj}},
			PublishedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		}
		m.SetDeps(deps)
		m.SetExternal(ext)
		switch globalForm % 3 {
		case 1:
			m.GlobalDep = &Token{Key: global}
		case 2:
			m.GlobalDep = &Token{Name: "pub/global"}
		}
		want, err := json.Marshal(mirrorOf(m))
		if err != nil {
			return false
		}
		got, err := Marshal(m)
		if err != nil || !bytes.Equal(got, want) {
			t.Logf("encode diverges (%v):\n got %s\nwant %s", err, got, want)
			return false
		}
		full, err := Unmarshal(got)
		if err != nil {
			t.Logf("decode refuses %s: %v", got, err)
			return false
		}
		proj, err := UnmarshalProjected(got, mixedSinks())
		if err != nil {
			t.Logf("projected decode refuses %s: %v", got, err)
			return false
		}
		defer ReleaseMessage(proj)
		for _, d := range []*Message{full, proj} {
			if !sameDeps(d.Deps, m.Deps) || !sameDeps(d.External, m.External) ||
				!reflect.DeepEqual(d.GlobalDep, m.GlobalDep) || d.Operations[0].Object != obj {
				t.Logf("tokens differ:\n got %v %v %v %v\nwant %v %v %v %v", d.Deps, d.External, d.GlobalDep, d.Operations[0].Object, m.Deps, m.External, m.GlobalDep, obj)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// sameDeps compares dependency lists, nil and empty alike.
func sameDeps(a, b []Dep) bool { return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b) }

// TestQuickCodecEquivalence is the testing/quick property test on the
// rest of a message: for arbitrary (adversarial-unicode) field values,
// the encoder matches encoding/json byte for byte and the decoder
// reproduces the stdlib's reading.
func TestQuickCodecEquivalence(t *testing.T) {
	prop := func(app, id, typ, attrKey, attrStr, dotName string, dep, gen, seq uint64, attrNum float64, recovered bool, nsec int64) bool {
		if math.IsNaN(attrNum) || math.IsInf(attrNum, 0) {
			attrNum = 0
		}
		m := &Message{
			App: app,
			Operations: []Operation{{
				Operation: OpUpdate,
				Types:     []string{typ, "Base"},
				ID:        id,
				Attributes: map[string]any{
					attrKey: attrStr,
					"num":   attrNum,
					"list":  []any{attrStr, attrNum, nil},
				},
				Object: Token{Key: dep},
			}},
			PublishedAt: time.Unix(int64(seq%4e9), nsec%1e9).UTC(),
			Generation:  gen,
			Seq:         seq,
			Recovered:   recovered,
		}
		m.SetDeps([]Dep{{Token{Key: dep}, gen}, {Token{Name: app + "/" + dotName}, seq}})
		want, err := json.Marshal(mirrorOf(m))
		if err != nil {
			return false
		}
		got, err := Marshal(m)
		if err != nil || !bytes.Equal(got, want) {
			t.Logf("encode diverges (%v):\n got %s\nwant %s", err, got, want)
			return false
		}
		fast, err := Unmarshal(want)
		if err != nil {
			t.Logf("decoder rejected the encoder's output: %v", err)
			return false
		}
		std, err := stdDecode(want)
		if err != nil {
			return false
		}
		if got := mirrorOf(fast); !reflect.DeepEqual(got, std) {
			t.Logf("decode diverges:\n fast %#v\n  std %#v", got, std)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPooledDecodeNoStaleState decodes a large message into a pooled
// struct, releases it, then decodes progressively smaller ones and
// checks nothing from the earlier decode leaks through the reuse.
func TestPooledDecodeNoStaleState(t *testing.T) {
	big := &Message{
		App: "big",
		Operations: []Operation{
			{Operation: OpCreate, Types: []string{"A", "B", "C"}, ID: "1", Attributes: map[string]any{"x": int64(1), "y": "two"}, Object: Token{Key: 1}},
			{Operation: OpUpdate, Types: []string{"D"}, ID: "2", Attributes: map[string]any{"z": true}, Object: Token{Key: 2}},
			{Operation: OpDestroy, Types: []string{"E"}, ID: "3", Object: Token{Name: "big/e/id/3"}},
		},
		Deps:        []Dep{{Token{Key: 1}, 1}, {Token{Key: 2}, 2}, {Token{Name: "big/e/id/3"}, 3}},
		External:    []Dep{{Token{Key: 9}, 9}},
		PublishedAt: time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC),
		Generation:  7,
		GlobalDep:   &Token{Name: "big/global"},
		Seq:         100,
		Recovered:   true,
	}
	payloadBig, err := Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	small := `{"app":"small","operations":[{"operation":"update","types":["T","U"],"id":"9","object_dep":"5"}],"dependencies":{"5":1},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`
	want, err := Unmarshal([]byte(small))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		m, err := UnmarshalPooled(payloadBig)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(m)

		m, err = UnmarshalPooled([]byte(small))
		if err != nil {
			t.Fatal(err)
		}
		// The pooled struct may retain larger capacities; compare values.
		if !reflect.DeepEqual(mirrorOf(m), mirrorOf(want)) || !reflect.DeepEqual(m.Operations, want.Operations) ||
			!sameDeps(m.Deps, want.Deps) || len(m.External) != 0 || m.GlobalDep != nil {
			t.Fatalf("stale state after reuse:\n got %#v\nwant %#v", m, want)
		}
		ReleaseMessage(m)
	}
}

// TestWithEncodedMatchesMarshal checks the zero-copy encode hook hands
// out the same bytes Marshal returns.
func TestWithEncodedMatchesMarshal(t *testing.T) {
	m := sampleMessage()
	want, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := WithEncoded(m, func(p []byte) error {
		got = append(got, p...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WithEncoded = %s, want %s", got, want)
	}
	wantErr := fmt.Errorf("sentinel")
	if err := WithEncoded(m, func([]byte) error { return wantErr }); err != wantErr {
		t.Fatalf("WithEncoded error = %v, want sentinel", err)
	}
}

// TestMarshalErrorParity checks the encoder rejects what encoding/json
// rejects.
func TestMarshalErrorParity(t *testing.T) {
	bad := map[string]*Message{
		"inf-attr": {App: "a", Operations: []Operation{{Operation: OpUpdate, Types: []string{"T"}, ID: "1",
			Attributes: map[string]any{"x": math.Inf(1)}}}, PublishedAt: time.Unix(0, 0).UTC(), Seq: 1},
		"nan-attr": {App: "a", Operations: []Operation{{Operation: OpUpdate, Types: []string{"T"}, ID: "1",
			Attributes: map[string]any{"x": math.NaN()}}}, PublishedAt: time.Unix(0, 0).UTC(), Seq: 1},
		"year-10000": {App: "a", Operations: []Operation{},
			PublishedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Seq: 1},
	}
	for name, m := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := json.Marshal(mirrorOf(m)); err == nil {
				t.Skip("stdlib accepts this; nothing to compare")
			}
			if _, err := Marshal(m); err == nil {
				t.Fatal("Marshal accepted a message encoding/json rejects")
			}
		})
	}
}

// FuzzUnmarshal checks the decoder against encoding/json on arbitrary
// input: it ends every input in a message or an error, never a panic,
// and for any payload it accepts checkDecode holds.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range goldenMessages() {
		b, err := Marshal(m)
		if err != nil {
			continue
		}
		f.Add(b)
	}
	for _, p := range parentPayloads {
		f.Add([]byte(p))
	}
	f.Add([]byte(`{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":{"k":[1,{"x":null}]},"object_dep":"0"}],"dependencies":{"1":1},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`))
	f.Add([]byte(`{"APP":"😀","ſeq":1,"unknown":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		checkDecode(t, data, m)
	})
}

func BenchmarkMarshal(b *testing.B) {
	m := sampleMessage()
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Marshal(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		mm := mirrorOf(m)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(mm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with-encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WithEncoded(m, func([]byte) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkUnmarshal(b *testing.B) {
	payload, err := Marshal(sampleMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := UnmarshalPooled(payload)
			if err != nil {
				b.Fatal(err)
			}
			ReleaseMessage(m)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var mm mirror
			if err := json.Unmarshal(payload, &mm); err != nil {
				b.Fatal(err)
			}
		}
	})
}
