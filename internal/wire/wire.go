// Package wire defines Synapse's write-message format (Fig 6(b)): the
// JSON document a publisher emits for each committed operation group and
// a subscriber consumes. A message carries the app name, the marshalled
// operations (with each object's full inheritance chain, so subscribers
// can consume polymorphic models), the dependency map from hashed
// dependency keys to required versions, and the publisher generation
// number used for recovery (§4.4).
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
	Operation OpKind `json:"operation"`
	// Types is the object's inheritance chain, most-derived first.
	Types []string `json:"types"`
	ID    string   `json:"id"`
	// Attributes holds the published attribute values (empty for
	// destroys).
	Attributes map[string]any `json:"attributes,omitempty"`
	// ObjectDep is the hashed dependency key of the object itself —
	// what a weak-mode subscriber consults for last-writer-wins. A
	// projected decode (UnmarshalProjected) parses a decimal token in
	// place instead: ObjectKey has it, and this field stays empty.
	ObjectDep string `json:"object_dep"`

	// Set by a projected decode only. projected: Attributes holds exactly
	// what sink asked for, under sink's own key strings — nothing at all
	// when sink is nil or did not want this verb's attributes.
	sink      Sink
	projected bool
	// The object's hashed key: parsed in place by a projected decode, or
	// set by a publisher (SetObjectDep) and rendered by the encoder.
	depKey uint64
	hasKey bool
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

// SetObjectDep sets the object's own dependency token: a name is the
// token, a hashed key is rendered in decimal by the encoder.
func (o *Operation) SetObjectDep(d Dep) {
	if d.Name != "" {
		o.ObjectDep = d.Name
		return
	}
	o.ObjectDep, o.depKey, o.hasKey = "", d.Key, true
}

// Sink reports which sink chose this operation's attributes, and whether
// one did: false for an operation decoded in full (Unmarshal, a message
// built by hand), whose Attributes are still everything the publisher
// sent.
func (o *Operation) Sink() (Sink, bool) { return o.sink, o.projected }

// ObjectKey returns the object's dependency token as a hashed key when a
// projected decode parsed it in place; otherwise the token, decimal or
// name, is in ObjectDep.
func (o *Operation) ObjectKey() (uint64, bool) { return o.depKey, o.hasKey }

// Model returns the most-derived type name.
func (o *Operation) Model() string {
	if len(o.Types) == 0 {
		return ""
	}
	return o.Types[0]
}

// Message is one published write message.
type Message struct {
	App        string      `json:"app"`
	Operations []Operation `json:"operations"`
	// Dependencies maps hashed dependency keys (decimal strings) to the
	// version the subscriber must have seen before processing.
	Dependencies map[string]uint64 `json:"dependencies"`
	// External dependencies behave like read dependencies but are not
	// incremented on either side (decorator cross-app causality, §4.2).
	External map[string]uint64 `json:"external_dependencies,omitempty"`
	// Dots carries exact per-name dependency dots when the publisher
	// runs the dotted-version-vector tracker: keys are full dependency
	// names (which always contain '/', disjoint from the decimal hashed
	// keys in Dependencies), values the required versions — the same
	// wait/apply semantics as Dependencies, but collision-free. Hash
	// publishers leave it empty, so their frames stay byte-identical to
	// the pre-DVV format, and old decoders simply ignore the key.
	Dots        map[string]uint64 `json:"dots,omitempty"`
	PublishedAt time.Time         `json:"published_at"`
	Generation  uint64            `json:"generation"`
	// GlobalDep names the synthetic global-object dependency key when
	// the publisher runs in global mode; subscribers with weaker modes
	// ignore it (§4.2).
	GlobalDep string `json:"global_dep,omitempty"`
	// Seq is a publisher-local sequence number. Bootstrap uses it to
	// avoid double-counting messages already reflected in a version
	// snapshot.
	Seq uint64 `json:"seq"`
	// Recovered marks a message republished from the publish journal
	// after a crash. Replays may duplicate an original send; subscribers
	// rely on the per-object version guard to make them idempotent.
	Recovered bool `json:"recovered,omitempty"`

	// deps, set by SetDeps, stands for Dependencies and Dots: hashed keys
	// first, in the order their decimal tokens sort, then names, sorted.
	deps []Dep

	// parsedDeps holds the hashed dependencies under their numeric keys.
	// A projected decode parses them straight into it (a key that is not
	// a number stays in Dependencies, for Deps to report); otherwise Deps
	// fills it from Dependencies, once. Not concurrency safe (a message
	// is owned by one worker at a time). depsParsed marks it complete — a
	// pooled message keeps the cleared map between uses, so a nil check
	// alone cannot distinguish "complete and empty" from "not yet parsed".
	parsedDeps map[uint64]uint64
	depsParsed bool
}

// Dep is one dependency as a publisher embeds it: a hashed key, or under
// the DVV tracker an exact name, and the version to have seen.
type Dep struct {
	Key     uint64
	Name    string // an exact name (a dot); "" for a hashed key
	Version uint64
}

// SetDeps gives a publisher's message its dependencies in numeric form,
// in place of the Dependencies and Dots maps: the encoder renders hashed
// keys into "dependencies" and names into "dots" exactly as encoding/json
// renders the maps. It sorts deps in place and keeps it; nil gives the
// maps back their say.
func (m *Message) SetDeps(deps []Dep) {
	slices.SortFunc(deps, compareDeps)
	m.deps = deps
}

// compareDeps orders hashed keys before names, and each by its token.
func compareDeps(a, b Dep) int {
	if a.Name != "" || b.Name != "" {
		return strings.Compare(a.Name, b.Name) // "" first: hashed keys
	}
	var x, y [20]byte
	return bytes.Compare(strconv.AppendUint(x[:0], a.Key, 10), strconv.AppendUint(y[:0], b.Key, 10))
}

// splitDeps returns SetDeps' hashed keys and names.
func (m *Message) splitDeps() (hashed, names []Dep) {
	n := len(m.deps)
	for n > 0 && m.deps[n-1].Name != "" {
		n--
	}
	return m.deps[:n], m.deps[n:]
}

// Deps returns the hashed dependencies keyed by hashed dependency key,
// parsing the Dependencies map once rather than once per pipeline stage.
func (m *Message) Deps() (map[uint64]uint64, error) {
	if m.depsParsed {
		return m.parsedDeps, nil
	}
	if m.parsedDeps == nil {
		m.parsedDeps = make(map[uint64]uint64, len(m.Dependencies))
	}
	for s, v := range m.Dependencies {
		k, err := ParseDepKey(s)
		if err != nil {
			return nil, err
		}
		m.parsedDeps[k] = v
	}
	m.depsParsed = true
	return m.parsedDeps, nil
}

// ObjectVersion computes the post-write version of op's object from the
// message's dependencies (the embedded value is version−1 for writes):
// its token lives in Dependencies (hash publisher) or Dots (DVV
// publisher). False when the message carries no version for it.
func (m *Message) ObjectVersion(op *Operation) (uint64, bool) {
	tok := op.ObjectDep
	if op.hasKey {
		if v, ok := m.parsedDeps[op.depKey]; ok {
			return v + 1, true
		}
		if len(m.Dots) == 0 {
			return 0, false
		}
		tok = DepKey(op.depKey) // a decimal among the dots: no publisher sends one
	} else if v, ok := m.Dependencies[tok]; ok {
		return v + 1, true
	}
	if v, ok := m.Dots[tok]; ok {
		return v + 1, true
	}
	return 0, false
}

// DepKey renders a hashed dependency key for the maps above.
func DepKey(k uint64) string { return strconv.FormatUint(k, 10) }

// ParseDepKey parses a dependency map key back to the hashed key.
func ParseDepKey(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: bad dependency key %q: %w", s, err)
	}
	return v, nil
}

// Unmarshal decodes a message, normalizing attribute values into the
// model value set (JSON numbers arrive as float64 and stay that way;
// record accessors accept both widths). The fast decoder takes the
// canonical form Marshal writes; any other input — another key order,
// whitespace, malformed JSON, numbers out of range, pathological nesting
// — is decoded by encoding/json, so results and errors are always the
// stdlib's.
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	if err := decodeFast(b, m, nil); err != nil {
		return unmarshalStd(b)
	}
	return m, nil
}

func unmarshalStd(b []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	for i := range m.Operations {
		if m.Operations[i].Attributes != nil {
			coerced := model.Coerce(m.Operations[i].Attributes)
			m.Operations[i].Attributes = coerced.(map[string]any)
		}
	}
	return &m, nil
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
	for k := range m.Dependencies {
		if _, err := ParseDepKey(k); err != nil {
			return err
		}
	}
	_, names := m.splitDeps()
	for _, d := range names {
		if !IsNameToken(d.Name) {
			return fmt.Errorf("wire: dot key %q is not a dependency name", d.Name)
		}
	}
	for k := range m.Dots {
		if !IsNameToken(k) {
			return fmt.Errorf("wire: dot key %q is not a dependency name", k)
		}
	}
	return nil
}

// IsNameToken reports whether a dependency token is an exact name (DVV
// dots) rather than a hashed decimal key. Names always contain '/'
// (app/table/id/<id> or app/global); hashed keys are pure decimals, so
// the two token forms never overlap and any subscriber can resolve
// both regardless of its own tracker policy.
func IsNameToken(tok string) bool {
	for i := 0; i < len(tok); i++ {
		if tok[i] == '/' {
			return true
		}
	}
	return false
}
