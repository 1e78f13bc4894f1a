// Package wire defines Synapse's write-message format (Fig 6(b)): the
// JSON document a publisher emits for each committed operation group and
// a subscriber consumes. A message carries the app name, the marshalled
// operations (with each object's full inheritance chain, so subscribers
// can consume polymorphic models), the dependencies with their required
// versions, and the publisher generation number used for recovery
// (§4.4). A dependency token has one in-memory form, Token; only the
// encoder and the decoder turn it into text and back.
package wire

import (
	"fmt"
	"slices"
	"time"

	"synapse/internal/model"
)

// OpKind is the operation verb.
type OpKind string

// Operation verbs.
const (
	OpCreate  OpKind = "create"
	OpUpdate  OpKind = "update"
	OpDestroy OpKind = "destroy"
)

// Operation is one marshalled object write.
type Operation struct {
	Operation OpKind
	// Types is the object's inheritance chain, most-derived first.
	Types []string
	ID    string
	// Attributes holds the published attribute values (empty for
	// destroys).
	Attributes map[string]any
	// Object is the token of the object itself — what a weak-mode
	// subscriber consults for last-writer-wins.
	Object Token

	// Set by a projected decode only. projected: Attributes holds exactly
	// what sink asked for, under sink's own key strings — nothing at all
	// when sink is nil or did not want this verb's attributes.
	sink      Sink
	projected bool
	// Set by a publisher (Project): the attributes are what lens reads
	// from rec when the message is encoded.
	lens *model.Projection
	rec  *model.Record
}

// Project makes the operation's attributes what lens reads from rec at
// encode time, in place of an Attributes map: a publisher builds none.
func (o *Operation) Project(lens *model.Projection, rec *model.Record) {
	o.Attributes, o.lens, o.rec = nil, lens, rec
}

// Sink reports which sink chose this operation's attributes, and whether
// one did: false for an operation decoded in full (Unmarshal, a message
// built by hand), whose Attributes are still everything the publisher
// sent.
func (o *Operation) Sink() (Sink, bool) { return o.sink, o.projected }

// Model returns the most-derived type name.
func (o *Operation) Model() string {
	if len(o.Types) == 0 {
		return ""
	}
	return o.Types[0]
}

// Message is one published write message.
type Message struct {
	App        string
	Operations []Operation
	// Deps are the versions the subscriber must have seen before
	// processing: hashed keys, then names (the DVV tracker's dots), each
	// run in the order of its tokens' text, no token twice (SetDeps).
	Deps []Dep
	// External dependencies behave like read dependencies but are not
	// incremented on either side (decorator cross-app causality, §4.2):
	// tokens of either form, in the order of their text (SetExternal).
	External    []Dep
	PublishedAt time.Time
	Generation  uint64
	// GlobalDep is the synthetic global-object dependency when the
	// publisher runs in global mode, nil otherwise; subscribers with
	// weaker modes ignore it (§4.2).
	GlobalDep *Token
	// Seq is a publisher-local sequence number. Bootstrap uses it to
	// avoid double-counting messages already reflected in a version
	// snapshot.
	Seq uint64
	// Recovered marks a message republished from the publish journal
	// after a crash. Replays may duplicate an original send; subscribers
	// rely on the per-object version guard to make them idempotent.
	Recovered bool

	global Token // what a decoded GlobalDep points to
}

// Token is a dependency token: a hashed key, or under the DVV tracker an
// exact name (its Key then 0). On the wire a hashed key is its canonical
// decimal and a name is itself; a name always contains '/'
// (app/table/id/<id> or app/global), so the two forms never overlap and
// any subscriber can resolve both whatever its own tracker.
type Token struct {
	Key  uint64
	Name string // an exact name; "" for a hashed key
}

// Dep is one dependency: a token and the version to have seen.
type Dep struct {
	Token
	Version uint64
}

// SetDeps sorts deps into the order Deps holds them, merges a token
// listed twice into its highest version, and makes them the message's
// dependencies.
func (m *Message) SetDeps(deps []Dep) { m.Deps = sortDeps(deps, compareDeps) }

// SetExternal is SetDeps for the external dependencies.
func (m *Message) SetExternal(deps []Dep) {
	m.External = sortDeps(deps, func(a, b Dep) int { return a.compare(b.Token) })
}

// compareDeps orders hashed keys before names, and each by its text.
func compareDeps(a, b Dep) int {
	switch {
	case a.Name == "" && b.Name != "":
		return -1
	case a.Name != "" && b.Name == "":
		return 1
	}
	return a.compare(b.Token)
}

// sortDeps sorts deps by cmp in place and keeps one entry per token, at
// the highest version listed for it.
func sortDeps(deps []Dep, cmp func(a, b Dep) int) []Dep {
	slices.SortFunc(deps, cmp)
	out := deps[:0]
	for _, d := range deps {
		if n := len(out); n > 0 && out[n-1].Token == d.Token {
			out[n-1].Version = max(out[n-1].Version, d.Version)
			continue
		}
		out = append(out, d)
	}
	return out
}

// splitDeps returns Deps' hashed keys and names.
func (m *Message) splitDeps() (hashed, names []Dep) {
	n := 0
	for n < len(m.Deps) && m.Deps[n].Name == "" {
		n++
	}
	return m.Deps[:n], m.Deps[n:]
}

// ObjectVersion computes the post-write version of op's object from the
// message's dependencies (the embedded value is version−1 for writes).
// False when the message carries no version for it.
func (m *Message) ObjectVersion(op *Operation) (uint64, bool) {
	for _, d := range m.Deps {
		if d.Token == op.Object {
			return d.Version + 1, true
		}
	}
	return 0, false
}

// Unmarshal decodes a message, normalizing attribute values into the
// model value set (JSON numbers arrive as float64 and stay that way;
// record accessors accept both widths). It takes the one form Marshal
// writes (see decode.go); anything else is an error.
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	if err := decode(b, m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks structural invariants before a message is published.
func Validate(m *Message) error {
	if m.App == "" {
		return fmt.Errorf("wire: message without app")
	}
	if len(m.Operations) == 0 {
		return fmt.Errorf("wire: message without operations")
	}
	for i, op := range m.Operations {
		if len(op.Types) == 0 {
			return fmt.Errorf("wire: operation %d without type", i)
		}
		if op.ID == "" {
			return fmt.Errorf("wire: operation %d without id", i)
		}
		switch op.Operation {
		case OpCreate, OpUpdate, OpDestroy:
		default:
			return fmt.Errorf("wire: operation %d has unknown verb %q", i, op.Operation)
		}
	}
	return nil
}

// tokenForm is which token forms a member of the wire takes.
type tokenForm uint8

const (
	eitherForm tokenForm = iota // external_dependencies, object_dep, global_dep
	hashedForm                  // dependencies
	nameForm                    // dots
)

func (f tokenForm) String() string {
	switch f {
	case hashedForm:
		return "hashed key"
	case nameForm:
		return "name"
	}
	return "hashed key or name"
}

// isName reports whether a dependency token's text is a name rather
// than a hashed key's decimal.
func isName[T string | []byte](tok T) bool {
	for i := 0; i < len(tok); i++ {
		if tok[i] == '/' {
			return true
		}
	}
	return false
}
