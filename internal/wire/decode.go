package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The decoder. It parses the one form Marshal and WithEncoded write, in
// one pass, with no reflection and no intermediate map[string]any for
// the envelope, reusing the maps and slices of a pooled Message when one
// is supplied. The form: no whitespace; members in the encoder's order,
// each present at most once and optional but an operation's object_dep;
// null only for a nil operations or types; in strings only the escapes the encoder writes
// (no surrogate \u escapes, no raw invalid UTF-8); dependency tokens of
// the member's form (canonical decimals in dependencies, names in dots,
// either elsewhere), each list strictly increasing in the order of their
// text. An attribute value may be any JSON value nested at most maxDepth
// deep. Any other input is an error: every payload in the system comes
// from the encoder, which refuses to write what this refuses to read.

// decodeError is a decode failure and where it happened.
type decodeError struct {
	pos int
	msg string
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("wire: decode at offset %d: %s", e.pos, e.msg)
}

// maxDepth bounds how deep an attribute value nests, for the decoder's
// recursion; the encoder refuses a value it would refuse.
const maxDepth = 192

var errTooDeep = errors.New("attribute nested too deep")

type decoder struct {
	data    []byte
	pos     int
	scratch []byte // unescape buffer, reused across strings

	// resolve makes this a projected decode (see UnmarshalProjected).
	resolve Resolver
}

func (d *decoder) errf(format string, args ...any) error {
	return &decodeError{pos: d.pos, msg: fmt.Sprintf(format, args...)}
}

// decode parses data into m. m must be zeroed or pool-reset; its
// retained maps/slices (cleared by reset) are refilled in place.
func decode(data []byte, m *Message, resolve Resolver) error {
	d := decoder{data: data, resolve: resolve}
	if err := d.message(m); err != nil {
		return err
	}
	if d.pos != len(d.data) {
		return d.errf("trailing data")
	}
	return nil
}

// eat consumes c if it is what comes next.
func (d *decoder) eat(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *decoder) expect(c byte) error {
	if !d.eat(c) {
		return d.errf("expected %q", c)
	}
	return nil
}

// literal consumes s if it is what comes next.
func (d *decoder) literal(s string) bool {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// token consumes s, which has to come next.
func (d *decoder) token(s string) error {
	if !d.literal(s) {
		return d.errf("expected %s", s)
	}
	return nil
}

// object parses an object, handing each member's key to member to parse
// its value. The key is only valid until the next string is parsed.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.eat('}') {
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		if d.eat('}') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// array parses an array, calling elem to parse each element.
func (d *decoder) array(elem func() error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.eat(']') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// str parses a JSON string, returning bytes that alias either the input
// (no escapes) or the decoder's scratch buffer (escapes). The result is
// only valid until the next str call; callers that keep it must copy
// (string(...) does).
func (d *decoder) str() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			out := d.data[start:d.pos]
			d.pos++
			return out, d.validUTF8(out)
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return nil, d.errf("control character in string")
		}
	}
	return nil, d.errf("unterminated string")
}

// unescape finishes a string that has escapes into the scratch buffer.
// start is the offset just past the opening quote.
func (d *decoder) unescape(start int) ([]byte, error) {
	buf := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		d.pos++
		switch {
		case c == '"':
			d.scratch = buf
			return buf, d.validUTF8(buf)
		case c < 0x20:
			return nil, d.errf("control character in string")
		case c != '\\':
			buf = append(buf, c)
			continue
		case d.pos == len(d.data):
			return nil, d.errf("unterminated escape")
		}
		switch esc := d.data[d.pos]; esc {
		case '"', '\\':
			buf = append(buf, esc)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			if len(d.data)-d.pos < 5 {
				return nil, d.errf("short unicode escape")
			}
			r, err := strconv.ParseUint(string(d.data[d.pos+1:d.pos+5]), 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return nil, d.errf("unsupported unicode escape")
			}
			buf = utf8.AppendRune(buf, rune(r))
			d.pos += 4
		default:
			return nil, d.errf("unsupported escape %q", esc)
		}
		d.pos++
	}
	return nil, d.errf("unterminated string")
}

func (d *decoder) validUTF8(s []byte) error {
	if !utf8.Valid(s) {
		return d.errf("invalid UTF-8 in string")
	}
	return nil
}

// number scans one JSON number token, enforcing the JSON grammar (no
// leading zeros, mandatory digits around '.' and after an exponent).
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case d.pos < len(d.data) && d.data[d.pos] >= '1' && d.data[d.pos] <= '9':
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
	default:
		return nil, d.errf("invalid number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		n := d.pos
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
		if d.pos == n {
			return nil, d.errf("invalid number fraction")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		n := d.pos
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
		if d.pos == n {
			return nil, d.errf("invalid number exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// decimal parses a uint64 as the encoder writes one: a canonical decimal.
func (d *decoder) decimal() (uint64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	v, ok := parseDecimal(tok)
	if !ok {
		return 0, d.errf("number %q is not a uint64", tok)
	}
	return v, nil
}

// parseDecimal parses a token that is a canonical decimal uint64 —
// exactly what the encoder prints, so two of them are equal as numbers if
// and only if equal as strings. It allocates nothing, also for a token
// that is not one (a name), where strconv.ParseUint builds an error.
func parseDecimal(tok []byte) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 1 && tok[0] == '0' {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' || v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

var (
	messageFields = []string{
		"app", "operations", "dependencies", "external_dependencies",
		"dots", "published_at", "generation", "global_dep", "seq", "recovered",
	}
	operationFields = []string{"operation", "types", "id", "attributes", "object_dep"}
)

// field names the member key starts when it is one of names after those
// already read (*next on): the encoder writes them in this order, each
// at most once. "" for any other key.
func field(key []byte, names []string, next *int) string {
	for i := *next; i < len(names); i++ {
		if string(key) == names[i] {
			*next = i + 1
			return names[i]
		}
	}
	return ""
}

// message parses the top-level message object.
func (d *decoder) message(m *Message) error {
	next := 0
	return d.object(func(key []byte) (err error) {
		switch field(key, messageFields, &next) {
		case "app":
			return d.stringField(&m.App, true)
		case "operations":
			return d.operations(m)
		case "dependencies":
			return d.deps(&m.Deps, hashedForm)
		case "external_dependencies":
			return d.deps(&m.External, eitherForm)
		case "dots":
			return d.deps(&m.Deps, nameForm)
		case "published_at":
			// time.Time's own UnmarshalJSON takes the raw token, exactly
			// as encoding/json hands it over.
			start := d.pos
			if _, err := d.str(); err != nil {
				return err
			}
			return m.PublishedAt.UnmarshalJSON(d.data[start:d.pos])
		case "generation":
			m.Generation, err = d.decimal()
			return err
		case "global_dep":
			// The token lives in the message, and a name (app/global)
			// repeats on every message of the stream.
			s, err := d.str()
			if err == nil {
				m.global, err = d.parseToken(s, eitherForm, true)
				m.GlobalDep = &m.global
			}
			return err
		case "seq":
			m.Seq, err = d.decimal()
			return err
		case "recovered":
			m.Recovered = true
			return d.token("true")
		}
		return d.errf("unexpected member %q", key)
	})
}

// stringField parses a string member; intern is for the strings every
// message of a stream repeats (the origin).
func (d *decoder) stringField(dst *string, intern bool) error {
	s, err := d.str()
	if err != nil {
		return err
	}
	if intern {
		*dst = internString(s)
	} else {
		*dst = string(s)
	}
	return nil
}

// deps appends a dependency object's members to *dst: tokens of the
// given form, each after the one before it in the order of their text.
// A name is unique to its object, so it is copied, not interned.
func (d *decoder) deps(dst *[]Dep, form tokenForm) error {
	start := len(*dst)
	return d.object(func(key []byte) error {
		t, err := d.parseToken(key, form, false)
		if err != nil {
			return err
		}
		if n := len(*dst); n > start && (*dst)[n-1].compare(t) >= 0 {
			return d.errf("dependency %q out of order", key)
		}
		v, err := d.decimal()
		*dst = append(*dst, Dep{t, v})
		return err
	})
}

// depToken parses a string member that is a dependency token.
func (d *decoder) depToken(form tokenForm) (Token, error) {
	s, err := d.str()
	if err != nil {
		return Token{}, err
	}
	return d.parseToken(s, form, false)
}

// parseToken reads a token of the given form from its text: a canonical
// decimal is a hashed key, a string with '/' in it a name (interned if
// intern).
func (d *decoder) parseToken(s []byte, form tokenForm, intern bool) (Token, error) {
	if k, ok := parseDecimal(s); ok && form != nameForm {
		return Token{Key: k}, nil
	}
	if isName(s) && form != hashedForm {
		if intern {
			return Token{Name: internString(s)}, nil
		}
		return Token{Name: string(s)}, nil
	}
	return Token{}, d.errf("dependency %q is not a %s", s, form)
}

// operations parses the operations array into the message's operation
// slice. Within capacity a pooled element is reused as-is: reset zeroed
// it, keeping its type-chain backing, when the message went back to the
// pool.
func (d *decoder) operations(m *Message) error {
	if d.literal("null") {
		m.Operations = nil
		return nil
	}
	ops := m.Operations[:0]
	if ops == nil {
		ops = []Operation{}
	}
	err := d.array(func() error {
		if len(ops) < cap(ops) {
			ops = ops[:len(ops)+1]
		} else {
			ops = append(ops, Operation{})
		}
		return d.operation(&ops[len(ops)-1], m.App)
	})
	m.Operations = ops
	return err
}

// operation parses one operation; its object's token is the one member
// it cannot do without.
func (d *decoder) operation(op *Operation, app string) error {
	next := 0
	err := d.object(func(key []byte) (err error) {
		switch field(key, operationFields, &next) {
		case "operation":
			s, err := d.str()
			op.Operation = internVerb(s)
			return err
		case "types":
			return d.typeChain(op)
		case "id":
			return d.stringField(&op.ID, false)
		case "attributes":
			return d.attributes(op, app)
		case "object_dep":
			op.Object, err = d.depToken(eitherForm)
			return err
		}
		return d.errf("unexpected member %q", key)
	})
	if err == nil && next < len(operationFields) {
		return d.errf("operation without object_dep")
	}
	return err
}

// attributes parses an operation's attributes member: in full, or in a
// projected decode only what the operation's sink asks for. The sink is
// resolve's pick for the origin and type chain, which come first.
func (d *decoder) attributes(op *Operation, app string) error {
	var sink Sink
	if d.resolve != nil {
		op.sink, op.projected = d.resolve(app, op.Types), true
		if sink = op.sink; sink == nil || !sink.Wants(op.Operation) {
			sink = nothing{}
		}
	}
	if sink != (nothing{}) {
		op.Attributes = getAttrMap()
	}
	return d.anyObjectInto(op.Attributes, 0, sink)
}

// nothing is the sink of an operation nobody wants the attributes of:
// the member is still checked to be the object it has to be.
type nothing struct{}

func (nothing) Wants(OpKind) bool         { return false }
func (nothing) Key([]byte) (string, bool) { return "", false }

// internVerb maps the three operation verbs onto their constants so the
// hot path does not allocate a string per operation.
func internVerb(s []byte) OpKind {
	switch string(s) {
	case "create":
		return OpCreate
	case "update":
		return OpUpdate
	case "destroy":
		return OpDestroy
	}
	return OpKind(s)
}

func (d *decoder) typeChain(op *Operation) error {
	if d.literal("null") {
		op.Types = nil
		return nil
	}
	types := op.Types[:0]
	if types == nil {
		types = []string{}
	}
	err := d.array(func() error {
		s, err := d.str()
		types = append(types, internString(s))
		return err
	})
	op.Types = types
	return err
}

// value parses an arbitrary JSON value into the model value set (nil,
// bool, float64, string, []any, map[string]any) — the same shapes
// encoding/json produces for interface{} targets, already normalized so
// no Coerce pass is needed. Unless keep, it builds nothing and returns
// nil, but still fails where building would: a number beyond float64
// fails a projected decode exactly as a full one.
func (d *decoder) value(depth int, keep bool) (any, error) {
	if depth > maxDepth {
		return nil, d.errf("%v", errTooDeep)
	}
	var c byte
	if d.pos < len(d.data) {
		c = d.data[d.pos]
	}
	switch c {
	case 'n':
		return nil, d.token("null")
	case 't':
		return true, d.token("true")
	case 'f':
		return false, d.token("false")
	case '"':
		s, err := d.str()
		if err != nil || !keep {
			return nil, err
		}
		return string(s), nil
	case '{':
		if !keep {
			return nil, d.anyObjectInto(nil, depth, nothing{})
		}
		m := make(map[string]any)
		return m, d.anyObjectInto(m, depth, nil)
	case '[':
		// Most real-world attribute arrays are tiny; starting at capacity
		// 4 turns the 0->1->2->4 append-growth triple into one allocation.
		var out []any
		if keep {
			out = make([]any, 0, 4)
		}
		err := d.array(func() error {
			v, err := d.value(depth+1, keep)
			if keep {
				out = append(out, v)
			}
			return err
		})
		if !keep {
			return nil, err
		}
		return out, err
	}
	tok, err := d.number()
	if err != nil || !keep && len(tok) <= 300 && !bytes.ContainsAny(tok, "eE") {
		return nil, err // a skipped number this short fits a float64
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	switch {
	case err != nil:
		return nil, d.errf("number %q out of range", tok)
	case !keep:
		return nil, nil
	case !math.Signbit(v) && v < float64(len(smallNumbers)) && v == math.Trunc(v):
		return smallNumbers[int(v)], nil
	}
	return v, nil
}

// smallNumbers are the values of the JSON numbers that are non-negative
// integers below 256, boxed once (the runtime's staticuint64s, for
// float64): revisions, counts and flags decode without a box of their
// own. A box is immutable, so every decoded message may share it; -0 and
// every other number still get their own.
var smallNumbers = func() (t [256]any) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

// anyObjectInto fills an object's members into m (which may be a reused
// pooled map, already cleared): all of them under interned keys — key
// names repeat from one message to the next — or, given a sink, those it
// asks for under its own strings, the rest scanned past.
func (d *decoder) anyObjectInto(m map[string]any, depth int, sink Sink) error {
	return d.object(func(key []byte) error {
		k, wanted := "", true
		if sink == nil {
			k = internString(key)
		} else {
			k, wanted = sink.Key(key)
		}
		v, err := d.value(depth+1, wanted)
		if err == nil && wanted {
			m[k] = v
		}
		return err
	})
}
