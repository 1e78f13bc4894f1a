package wire

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
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
			ObjectDep:  "7341",
		}},
		Dependencies: map[string]uint64{"7341": 42},
		PublishedAt:  time.Date(2014, 10, 11, 7, 59, 0, 0, time.UTC),
		Generation:   1,
		Seq:          9,
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
	m.External = map[string]uint64{"55": 3}
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
	if got.Dependencies["7341"] != 42 || got.External["55"] != 3 {
		t.Errorf("deps = %+v ext = %+v", got.Dependencies, got.External)
	}
	op := got.Operations[0]
	if op.Model() != "User" || op.ObjectDep != "7341" {
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
		{func(m *Message) { m.Dependencies = map[string]uint64{"abc": 1} }, "bad dependency key"},
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

func TestDepKeyRoundTrip(t *testing.T) {
	check := func(v uint64) bool {
		got, err := ParseDepKey(DepKey(v))
		return err == nil && got == v
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDepKey("-1"); err == nil {
		t.Fatal("negative key accepted")
	}
}

func TestEmptyModelOnEmptyTypes(t *testing.T) {
	op := &Operation{}
	if op.Model() != "" {
		t.Fatal("Model on empty types")
	}
}

func TestDepsParsesAndCaches(t *testing.T) {
	m := &Message{
		App:          "pub",
		Dependencies: map[string]uint64{"12": 3, "7": 0},
	}
	deps, err := m.Deps()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[12] != 3 || deps[7] != 0 {
		t.Fatalf("deps = %v", deps)
	}
	again, err := m.Deps()
	if err != nil {
		t.Fatal(err)
	}
	again[12] = 99
	if third, _ := m.Deps(); third[12] != 99 {
		t.Error("Deps did not return the cached map")
	}
}

func TestDepsBadKey(t *testing.T) {
	m := &Message{Dependencies: map[string]uint64{"not-a-number": 1}}
	if _, err := m.Deps(); err == nil {
		t.Fatal("expected parse error")
	}
}
