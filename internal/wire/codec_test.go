package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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
				ObjectDep:  "9",
			}},
			Dependencies: map[string]uint64{"9": 1, "10": 3},
			External:     map[string]uint64{"77": 12, "3": 1},
			PublishedAt:  time.Date(2026, 1, 2, 3, 4, 5, 678900000, time.UTC),
			Generation:   3,
			Seq:          12,
		},
		"global-dep": {
			App:          "pub2",
			Operations:   []Operation{{Operation: OpUpdate, Types: []string{"User"}, ID: "1", ObjectDep: "2"}},
			Dependencies: map[string]uint64{"2": 5, "0": 1},
			PublishedAt:  time.Date(2026, 6, 1, 0, 0, 0, 0, time.FixedZone("X", 3600)),
			Generation:   1,
			GlobalDep:    "18446744073709551615",
			Seq:          1,
			Recovered:    true,
		},
		"destroy-no-attrs": {
			App: "pub3",
			Operations: []Operation{
				{Operation: OpDestroy, Types: []string{"User", "Model"}, ID: "100", ObjectDep: "7341"},
				{Operation: OpDestroy, Types: []string{"User"}, ID: "101", Attributes: map[string]any{}, ObjectDep: "7342"},
			},
			Dependencies: map[string]uint64{"7341": 42},
			PublishedAt:  time.Date(2014, 10, 11, 7, 59, 0, 1, time.UTC),
			Generation:   9,
			Seq:          100,
		},
		"nasty-strings": {
			App: "päb<script>&amp;\n\t\"q\"\\",
			Operations: []Operation{{
				Operation: OpUpdate,
				Types:     []string{"Ty pe", "Kelvin", "ſmall"},
				ID:        "id\x00\x1f", // control bytes
				Attributes: map[string]any{
					"":        "empty key",
					"uni":     "héllо δ 世界 \U0001F600",
					"esc":     "a\"b\\c d<e>f&g",
					"badutf8": string([]byte{0x61, 0xff, 0xfe, 0x62}),
				},
				ObjectDep: "1",
			}},
			Dependencies: map[string]uint64{"1": 1},
			PublishedAt:  time.Unix(0, 0).UTC(),
			Generation:   1,
			Seq:          2,
		},
		"numbers": {
			App: "nums",
			Operations: []Operation{{
				Operation: OpCreate, Types: []string{"N"}, ID: "n", ObjectDep: "5",
				Attributes: map[string]any{
					"f0": 0.0, "fneg0": math.Copysign(0, -1),
					"tiny": 1e-7, "small": 1e-6, "big": 1e21, "edge": 9.999999999999998e20,
					"pi": 3.141592653589793, "neg": -2.5e-9,
					"i": int64(-9007199254740993), "u": uint64(math.MaxUint64),
					"i32": int32(-7), "f32": float32(1.5e-7), "int": int(42),
				},
			}},
			Dependencies: map[string]uint64{"5": 1},
			PublishedAt:  time.Date(2026, 8, 6, 1, 2, 3, 0, time.UTC),
			Generation:   2,
			Seq:          3,
		},
		"nested-attrs": {
			App: "deep",
			Operations: []Operation{{
				Operation: OpUpdate, Types: []string{"D"}, ID: "d", ObjectDep: "8",
				Attributes: map[string]any{
					"list":  []any{nil, true, false, "x", 1.5, []any{}, map[string]any{"k": "v"}},
					"obj":   map[string]any{"b": map[string]any{"c": []any{int64(1), int64(2)}}, "a": nil},
					"strs":  []string{"p", "q<r>"},
					"empty": map[string]any{},
				},
			}},
			Dependencies: map[string]uint64{"8": 2},
			PublishedAt:  time.Date(2026, 8, 6, 1, 2, 3, 999999999, time.UTC),
			Generation:   2,
			Seq:          4,
		},
		"dvv-dots": {
			App: "pub4",
			Operations: []Operation{{
				Operation: OpUpdate, Types: []string{"Post", "Base"}, ID: "7",
				Attributes: map[string]any{"body": "b"},
				ObjectDep:  "pub4/posts/id/7",
			}},
			Dependencies: map[string]uint64{},
			Dots:         map[string]uint64{"pub4/posts/id/7": 3, "pub4/users/id/1": 1},
			External:     map[string]uint64{"pub9/users/id/2": 4},
			PublishedAt:  time.Date(2026, 8, 7, 1, 2, 3, 0, time.UTC),
			Generation:   2,
			Seq:          9,
		},
		"nil-and-empty": {
			App:          "",
			Operations:   []Operation{{Operation: "", Types: nil, ID: "", Attributes: nil, ObjectDep: ""}, {Types: []string{}}},
			Dependencies: nil,
			External:     map[string]uint64{},
			PublishedAt:  time.Time{},
			Generation:   0,
			Seq:          0,
		},
		"nil-operations": {
			App:          "x",
			Operations:   nil,
			Dependencies: map[string]uint64{},
			PublishedAt:  time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC),
		},
	}
}

// TestMarshalGoldenEquivalence pins the tentpole guarantee: the
// hand-rolled encoder emits byte-for-byte what encoding/json emits.
func TestMarshalGoldenEquivalence(t *testing.T) {
	for name, m := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fast encoder diverges\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// stripCache zeroes the private dep cache so reflect.DeepEqual compares
// only the decoded wire fields.
func stripCache(m *Message) *Message {
	if m != nil {
		m.parsedDeps = nil
		m.depsParsed = false
	}
	return m
}

func decodeBothWays(t *testing.T, payload []byte) (*Message, *Message) {
	t.Helper()
	fast := new(Message)
	if err := decodeFast(payload, fast, nil); err != nil {
		t.Fatalf("fast decode rejected %s: %v", payload, err)
	}
	std, err := unmarshalStd(payload)
	if err != nil {
		t.Fatalf("stdlib decode rejected %s: %v", payload, err)
	}
	return fast, stripCache(std)
}

// TestUnmarshalGoldenEquivalence re-decodes every golden payload with
// both decoders and insists on identical structs.
func TestUnmarshalGoldenEquivalence(t *testing.T) {
	for name, m := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			payload, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			fast, std := decodeBothWays(t, payload)
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("decoders diverge\n fast: %#v\n  std: %#v", fast, std)
			}
		})
	}
}

// TestUnmarshalOldFormats feeds hand-written payloads a previous version
// of the system could have produced — different key order, unknown
// fields, case-folded keys, duplicate keys, nulls, whitespace, escapes —
// and checks that Unmarshal and UnmarshalProjected match encoding/json on
// each. fast records whether the fast path takes the payload: only the
// canonical ones.
func TestUnmarshalOldFormats(t *testing.T) {
	payloads := map[string]struct {
		p    string
		fast bool
	}{
		"reordered":     {`{"seq":9,"generation":1,"published_at":"2014-10-11T07:59:00Z","dependencies":{"7341":42},"operations":[{"object_dep":"7341","id":"100","types":["User"],"operation":"update"}],"app":"pub3"}`, false},
		"unknown-keys":  {`{"app":"a","version":2,"extra":{"deep":[1,2,{"x":null}]},"operations":[{"operation":"create","types":["T"],"id":"1","object_dep":"0","meta":"skip"}],"dependencies":{},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"case-folded":   {`{"APP":"a","Operations":[{"OPERATION":"update","Types":["T"],"Id":"1","ATTRIBUTES":{"k":1},"Object_Dep":"0"}],"DEPENDENCIES":{"1":2},"Published_At":"2026-01-01T00:00:00Z","GENERATION":3,"SEQ":4,"RECOVERED":true}`, false},
		"kelvin-fold":   {`{"app":"a","seK":7,"ſeq":8}`, false},
		"duplicates":    {`{"app":"first","app":"second","dependencies":{"1":1},"dependencies":{"2":2},"operations":[{"operation":"create","types":["A","B"],"id":"x","object_dep":"1"}],"operations":[{"id":"y"}],"seq":1,"seq":2}`, false},
		"nulls":         {`{"app":null,"operations":[{"operation":null,"types":null,"id":null,"attributes":null,"object_dep":null},null],"dependencies":null,"external_dependencies":null,"published_at":null,"generation":null,"global_dep":null,"seq":null,"recovered":null}`, false},
		"null-dep-vals": {`{"app":"a","operations":[],"dependencies":{"1":null,"2":3},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"null-types":    {`{"app":"a","operations":[{"operation":"update","types":["A",null,"C"],"id":"1","object_dep":"0"}],"dependencies":{},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"whitespace":    {"{\n  \"app\" : \"a\" ,\r\n\t\"operations\" : [ ] ,\n \"dependencies\" : { } , \"published_at\" : \"2026-01-01T00:00:00Z\" , \"generation\" : 1 , \"seq\" : 1 }", false},
		"escapes":       {`{"app":"Aé😀\n\t\"\\\/","operations":[{"operation":"update","types":["  "],"id":"\ud800","attributes":{"kK":"\udfff\ud83d"},"object_dep":"0"}],"dependencies":{"1":1},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`, false},
		"empty-object":  {`{}`, true},
		"attr-shapes":   {`{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":{"n":-12.5e2,"z":0,"neg":-0,"exp":1E+3,"arr":[[]],"o":{"a":{"b":[true,null]}},"s":"<&>"},"object_dep":"0"}],"dependencies":{"18446744073709551615":18446744073709551615},"published_at":"2026-01-01T00:00:00.123456789+05:30","generation":18446744073709551615,"seq":1}`, true},
	}
	resolve := mixedSinks()
	for name, c := range payloads {
		t.Run(name, func(t *testing.T) {
			payload := []byte(c.p)
			if err := decodeFast(payload, new(Message), nil); (err == nil) != c.fast {
				t.Errorf("fast path took it: %v, want %v (%v)", err == nil, c.fast, err)
			}
			std, err := unmarshalStd(payload)
			if err != nil {
				t.Fatalf("stdlib decode rejected %s: %v", payload, err)
			}
			got, err := Unmarshal(payload)
			if err != nil || !reflect.DeepEqual(stripCache(got), stripCache(std)) {
				t.Fatalf("Unmarshal diverges on %s (%v)\n  got: %#v\n  std: %#v", payload, err, got, std)
			}
			proj, err := UnmarshalProjected(payload, resolve)
			if err != nil {
				t.Fatalf("UnmarshalProjected rejected %s: %v", payload, err)
			}
			defer ReleaseMessage(proj)
			if got, want := apply(proj, resolve), apply(std, resolve); !reflect.DeepEqual(got, want) {
				t.Fatalf("UnmarshalProjected diverges on %s\n  got: %+v\n  std: %+v", payload, got, want)
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
		fast, std := decodeBothWays(t, []byte(payload))
		var want any
		if err := json.Unmarshal([]byte(num), &want); err != nil {
			t.Fatal(err)
		}
		for _, got := range []any{fast.Operations[0].Attributes["n"], std.Operations[0].Attributes["n"]} {
			g, ok := got.(float64)
			if w := want.(float64); !ok || g != w || math.Signbit(g) != math.Signbit(w) {
				t.Errorf("%s decodes to %#v, encoding/json gives %#v", num, got, want)
			}
		}
	}
}

// TestCrossFormatDecode pins wire compatibility across the tracker
// refactor in both directions: a pre-DVV hash-only frame (no "dots"
// key) must decode under the current codec with Dots nil, and a DVV
// frame must decode with its dots intact while a hash frame encoded by
// the current codec stays byte-identical to the old format (no "dots"
// key emitted when the map is empty).
func TestCrossFormatDecode(t *testing.T) {
	// Captured pre-DVV frame shape: hashed decimal keys only.
	oldFrame := `{"app":"pub3","operations":[{"operation":"update","types":["User"],"id":"100","object_dep":"7341"}],"dependencies":{"7341":42},"published_at":"2014-10-11T07:59:00Z","generation":9,"seq":12}`
	fast, std := decodeBothWays(t, []byte(oldFrame))
	if !reflect.DeepEqual(fast, std) {
		t.Fatalf("decoders diverge on old frame\n fast: %#v\n  std: %#v", fast, std)
	}
	if fast.Dots != nil {
		t.Fatalf("old hash-only frame decoded with non-nil Dots: %#v", fast.Dots)
	}
	// Re-encoding the old frame must reproduce it byte for byte: the new
	// field must not leak into hash-tracker output.
	re, err := Marshal(fast)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != oldFrame {
		t.Fatalf("hash frame changed shape under new codec\n got: %s\nwant: %s", re, oldFrame)
	}

	// A DVV frame decodes under both decoders with dots intact, and a
	// decoder that predates dots would have skipped the unknown key (the
	// skip path is what TestUnmarshalOldFormats' unknown-keys case pins).
	dvvFrame := `{"app":"pub4","operations":[{"operation":"update","types":["Post"],"id":"7","object_dep":"pub4/posts/id/7"}],"dependencies":{},"dots":{"pub4/posts/id/7":3,"pub4/users/id/1":1},"published_at":"2026-08-07T01:02:03Z","generation":2,"seq":9}`
	fast, std = decodeBothWays(t, []byte(dvvFrame))
	if !reflect.DeepEqual(fast, std) {
		t.Fatalf("decoders diverge on DVV frame\n fast: %#v\n  std: %#v", fast, std)
	}
	want := map[string]uint64{"pub4/posts/id/7": 3, "pub4/users/id/1": 1}
	if !reflect.DeepEqual(fast.Dots, want) {
		t.Fatalf("DVV frame dots = %#v, want %#v", fast.Dots, want)
	}
	re, err = Marshal(fast)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != dvvFrame {
		t.Fatalf("DVV frame not stable under re-encode\n got: %s\nwant: %s", re, dvvFrame)
	}

	// Pooled decode of a dots frame followed by a hash frame must not
	// leak dots through the pool reuse.
	m, err := UnmarshalPooled([]byte(dvvFrame))
	if err != nil {
		t.Fatal(err)
	}
	ReleaseMessage(m)
	m, err = UnmarshalPooled([]byte(oldFrame))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dots != nil {
		t.Fatalf("dots leaked through pool reuse: %#v", m.Dots)
	}
	ReleaseMessage(m)
}

// TestValidateDots checks Validate enforces the token-form split: dot
// keys must be names (contain '/'), dependency keys must be decimals.
func TestValidateDots(t *testing.T) {
	m := &Message{
		App:        "a",
		Operations: []Operation{{Operation: OpUpdate, Types: []string{"T"}, ID: "1", ObjectDep: "a/ts/id/1"}},
		Dots:       map[string]uint64{"a/ts/id/1": 1},
	}
	if err := Validate(m); err != nil {
		t.Fatalf("valid DVV message rejected: %v", err)
	}
	m.Dots = map[string]uint64{"1234": 1}
	if err := Validate(m); err == nil {
		t.Fatal("Validate accepted a decimal dot key")
	}
	m.Dots = nil
	m.Dependencies = map[string]uint64{"a/ts/id/1": 1}
	if err := Validate(m); err == nil {
		t.Fatal("Validate accepted a name-form dependencies key")
	}
}

// TestUnmarshalFallbackParity checks inputs the fast path refuses still
// behave exactly like encoding/json through the public Unmarshal.
func TestUnmarshalFallbackParity(t *testing.T) {
	payloads := []string{
		``, `null`, `42`, `"str"`, `[1,2]`, `{"app":}`, `{"app":"a"`,
		`{"app":"a",}`, `{'app':'a'}`, `{"generation":1.5}`, `{"seq":-1}`,
		`{"generation":1e2}`, `{"published_at":"not-a-time"}`,
		`{"published_at":42}`, `{"operations":{}}`, `{"dependencies":[1]}`,
		`{"recovered":"yes"}`, `{"app":"a"} trailing`,
		`{"operations":[{"attributes":{"big":1e999}}]}`,
		strings.Repeat(`{"a":`, 300) + `1` + strings.Repeat(`}`, 300),
	}
	for _, p := range payloads {
		gotM, gotErr := Unmarshal([]byte(p))
		wantM, wantErr := unmarshalStd([]byte(p))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: err=%v, stdlib err=%v", p, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(stripCache(gotM), stripCache(wantM)) {
			t.Errorf("%q: fast %#v != std %#v", p, gotM, wantM)
		}
	}
}

// TestQuickCodecEquivalence is the testing/quick property test: for
// arbitrary (adversarial-unicode) field values, the fast encoder matches
// encoding/json byte for byte and the fast decoder reproduces the
// stdlib's struct.
func TestQuickCodecEquivalence(t *testing.T) {
	prop := func(app, id, typ, attrKey, attrStr, globalDep string, dep, gen, seq uint64, attrNum float64, recovered bool, nsec int64) bool {
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
				ObjectDep: DepKey(dep),
			}},
			Dependencies: map[string]uint64{DepKey(dep): gen, attrKey: seq},
			External:     map[string]uint64{globalDep: dep},
			PublishedAt:  time.Unix(int64(seq%4e9), nsec%1e9).UTC(),
			Generation:   gen,
			GlobalDep:    globalDep,
			Seq:          seq,
			Recovered:    recovered,
		}
		want, err := json.Marshal(m)
		if err != nil {
			return false
		}
		got, err := Marshal(m)
		if err != nil || !bytes.Equal(got, want) {
			t.Logf("encode diverges:\n got %s\nwant %s", got, want)
			return false
		}
		fast := new(Message)
		if err := decodeFast(want, fast, nil); err != nil {
			t.Logf("fast decode rejected own output: %v", err)
			return false
		}
		std, err := unmarshalStd(want)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(fast, stripCache(std)) {
			t.Logf("decode diverges:\n fast %#v\n  std %#v", fast, std)
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
			{Operation: OpCreate, Types: []string{"A", "B", "C"}, ID: "1", Attributes: map[string]any{"x": int64(1), "y": "two"}, ObjectDep: "1"},
			{Operation: OpUpdate, Types: []string{"D"}, ID: "2", Attributes: map[string]any{"z": true}, ObjectDep: "2"},
			{Operation: OpDestroy, Types: []string{"E"}, ID: "3", ObjectDep: "3"},
		},
		Dependencies: map[string]uint64{"1": 1, "2": 2, "3": 3},
		External:     map[string]uint64{"9": 9},
		PublishedAt:  time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC),
		Generation:   7,
		GlobalDep:    "g",
		Seq:          100,
		Recovered:    true,
	}
	payloadBig, _ := json.Marshal(big)
	small := `{"app":"small","operations":[{"operation":"update","types":["T","U"],"id":"9","object_dep":"5"}],"dependencies":{"5":1},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`
	if err := decodeFast([]byte(small), new(Message), nil); err != nil {
		t.Fatalf("the small message does not take the fast path: %v", err)
	}

	for i := 0; i < 8; i++ {
		m, err := UnmarshalPooled(payloadBig)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Deps(); err != nil { // populate the cache, then reuse
			t.Fatal(err)
		}
		ReleaseMessage(m)

		m, err = UnmarshalPooled([]byte(small))
		if err != nil {
			t.Fatal(err)
		}
		want, err := unmarshalStd([]byte(small))
		if err != nil {
			t.Fatal(err)
		}
		// The pooled struct may retain larger capacities; compare values.
		if m.App != want.App || m.Generation != want.Generation || m.Seq != want.Seq ||
			m.GlobalDep != "" || m.Recovered || len(m.External) != 0 ||
			!m.PublishedAt.Equal(want.PublishedAt) {
			t.Fatalf("stale envelope after reuse: %#v", m)
		}
		if !reflect.DeepEqual(m.Operations, want.Operations) {
			t.Fatalf("stale operations after reuse:\n got %#v\nwant %#v", m.Operations, want.Operations)
		}
		if !reflect.DeepEqual(m.Dependencies, want.Dependencies) {
			t.Fatalf("stale dependencies after reuse: %#v", m.Dependencies)
		}
		deps, err := m.Deps()
		if err != nil {
			t.Fatal(err)
		}
		if len(deps) != 1 || deps[5] != 1 {
			t.Fatalf("stale dep cache after reuse: %#v", deps)
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
			Attributes: map[string]any{"x": math.Inf(1)}, ObjectDep: "0"}},
			Dependencies: map[string]uint64{}, PublishedAt: time.Unix(0, 0).UTC(), Seq: 1},
		"nan-attr": {App: "a", Operations: []Operation{{Operation: OpUpdate, Types: []string{"T"}, ID: "1",
			Attributes: map[string]any{"x": math.NaN()}, ObjectDep: "0"}},
			Dependencies: map[string]uint64{}, PublishedAt: time.Unix(0, 0).UTC(), Seq: 1},
		"year-10000": {App: "a", Operations: []Operation{}, Dependencies: map[string]uint64{},
			PublishedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Seq: 1},
	}
	for name, m := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := json.Marshal(m); err == nil {
				t.Skip("stdlib accepts this; nothing to compare")
			}
			if _, err := Marshal(m); err == nil {
				t.Fatal("Marshal accepted a message encoding/json rejects")
			}
		})
	}
}

// FuzzUnmarshal cross-checks the two decoders on arbitrary input: any
// payload the fast path accepts must decode identically under
// encoding/json, and re-encoding the result must match json.Marshal.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range goldenMessages() {
		b, err := json.Marshal(m)
		if err != nil {
			continue
		}
		f.Add(b)
	}
	f.Add([]byte(`{"app":"a","operations":[{"operation":"update","types":["T"],"id":"1","attributes":{"k":[1,{"x":null}]},"object_dep":"0"}],"dependencies":{"1":1},"published_at":"2026-01-01T00:00:00Z","generation":1,"seq":1}`))
	f.Add([]byte(`{"APP":"😀","ſeq":1,"unknown":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := new(Message)
		if err := decodeFast(data, fast, nil); err != nil {
			return // fallback handles it; parity covered by Unmarshal
		}
		std, err := unmarshalStd(data)
		if err != nil {
			t.Fatalf("fast path accepted input stdlib rejects: %q (%v)", data, err)
		}
		if !reflect.DeepEqual(fast, stripCache(std)) {
			t.Fatalf("decoders diverge on %q\n fast: %#v\n  std: %#v", data, fast, std)
		}
		want, wantErr := json.Marshal(std)
		got, gotErr := Marshal(fast)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("re-encode error mismatch: fast=%v std=%v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("re-encode diverges\n got: %s\nwant: %s", got, want)
		}
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
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(m); err != nil {
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
	payload, err := json.Marshal(sampleMessage())
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
			if _, err := unmarshalStd(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
