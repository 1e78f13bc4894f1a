package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"synapse/internal/model"
)

// record is the operation's payload as a model record.
func record(o Operation) *model.Record {
	rec := model.NewRecord(o.Model(), o.ID)
	rec.Merge(o.Attributes)
	return rec
}

func sampleMessage() *Message {
	return &Message{
		App: "pub3",
		Operations: []Operation{{
			Operation:  OpUpdate,
			Types:      []string{"User"},
			ID:         "100",
			Attributes: map[string]any{"interests": []any{"cats", "dogs"}},
			Object:     Token{Key: 7341},
		}},
		Deps:        []Dep{{Token{Key: 7341}, 42}},
		PublishedAt: time.Date(2014, 10, 11, 7, 59, 0, 0, time.UTC),
		Generation:  1,
		Seq:         9,
	}
}

// TestFig6bShape checks the marshalled JSON carries the fields of the
// paper's sample write message (Fig 6(b)).
func TestFig6bShape(t *testing.T) {
	b, err := Marshal(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"app", "operations", "dependencies", "published_at", "generation"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("marshalled message missing %q", field)
		}
	}
	ops := raw["operations"].([]any)
	op := ops[0].(map[string]any)
	if op["operation"] != "update" || op["id"] != "100" {
		t.Errorf("operation = %+v", op)
	}
	attrs := op["attributes"].(map[string]any)
	ints := attrs["interests"].([]any)
	if len(ints) != 2 || ints[0] != "cats" {
		t.Errorf("attributes = %+v", attrs)
	}
	deps := raw["dependencies"].(map[string]any)
	if deps["7341"] != float64(42) {
		t.Errorf("dependencies = %+v", deps)
	}
}

func TestRoundTrip(t *testing.T) {
	m := sampleMessage()
	m.External = []Dep{{Token{Key: 55}, 3}, {Token{Name: "pub9/users/id/2"}, 4}}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != m.App || got.Generation != 1 || got.Seq != 9 {
		t.Errorf("envelope = %+v", got)
	}
	if !reflect.DeepEqual(got.Deps, m.Deps) || !reflect.DeepEqual(got.External, m.External) {
		t.Errorf("deps = %+v ext = %+v", got.Deps, got.External)
	}
	op := got.Operations[0]
	if op.Model() != "User" || op.Object != (Token{Key: 7341}) {
		t.Errorf("op = %+v", op)
	}
	rec := record(op)
	if rec.Model != "User" || rec.ID != "100" {
		t.Errorf("record = %+v", rec)
	}
	if in := rec.Strings("interests"); len(in) != 2 || in[1] != "dogs" {
		t.Errorf("interests = %v", in)
	}
	if !got.PublishedAt.Equal(m.PublishedAt) {
		t.Errorf("published_at = %v", got.PublishedAt)
	}
}

func TestNumericAttributesSurviveTransport(t *testing.T) {
	m := sampleMessage()
	m.Operations[0].Attributes = map[string]any{"likes": int64(7), "score": 1.5}
	b, _ := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(got.Operations[0])
	if rec.Int("likes") != 7 {
		t.Errorf("likes = %v (%T)", rec.Get("likes"), rec.Get("likes"))
	}
	if rec.Get("score") != 1.5 {
		t.Errorf("score = %v", rec.Get("score"))
	}
}

func TestInheritanceChain(t *testing.T) {
	m := sampleMessage()
	m.Operations[0].Types = []string{"AdminUser", "User"}
	b, _ := Marshal(m)
	got, _ := Unmarshal(b)
	op := got.Operations[0]
	if op.Model() != "AdminUser" || len(op.Types) != 2 || op.Types[1] != "User" {
		t.Errorf("types = %v", op.Types)
	}
}

func TestValidate(t *testing.T) {
	ok := sampleMessage()
	if err := Validate(ok); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Message)
		want   string
	}{
		{func(m *Message) { m.App = "" }, "without app"},
		{func(m *Message) { m.Operations = nil }, "without operations"},
		{func(m *Message) { m.Operations[0].Types = nil }, "without type"},
		{func(m *Message) { m.Operations[0].ID = "" }, "without id"},
		{func(m *Message) { m.Operations[0].Operation = "upsert" }, "unknown verb"},
	}
	for _, c := range cases {
		m := sampleMessage()
		c.mutate(m)
		err := Validate(m)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate after %q mutation = %v", c.want, err)
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEmptyModelOnEmptyTypes(t *testing.T) {
	op := &Operation{}
	if op.Model() != "" {
		t.Fatal("Model on empty types")
	}
}

// TestSetDepsOrder checks SetDeps and SetExternal put a publisher's
// dependencies in the order the encoder writes them — hashed keys by
// their decimal text (10 before 9), then names; external tokens by text
// whatever their form — and merge a token listed twice at its highest
// version.
func TestSetDepsOrder(t *testing.T) {
	var m Message
	m.SetDeps([]Dep{{Token{Name: "a/x"}, 1}, {Token{Key: 9}, 2}, {Token{Key: 10}, 3}, {Token{Key: 9}, 5}, {Token{Name: "0/y"}, 1}})
	want := []Dep{{Token{Key: 10}, 3}, {Token{Key: 9}, 5}, {Token{Name: "0/y"}, 1}, {Token{Name: "a/x"}, 1}}
	if !reflect.DeepEqual(m.Deps, want) {
		t.Errorf("Deps = %v, want %v", m.Deps, want)
	}
	m.SetExternal([]Dep{{Token{Name: "a/x"}, 1}, {Token{Key: 9}, 2}, {Token{Name: "0/y"}, 1}, {Token{Key: 10}, 3}})
	want = []Dep{{Token{Name: "0/y"}, 1}, {Token{Key: 10}, 3}, {Token{Key: 9}, 2}, {Token{Name: "a/x"}, 1}}
	if !reflect.DeepEqual(m.External, want) {
		t.Errorf("External = %v, want %v", m.External, want)
	}
}
