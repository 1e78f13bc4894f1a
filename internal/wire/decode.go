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

// The hand-rolled decoder. It parses a message payload in one pass with
// no reflection and no intermediate map[string]any for the known
// envelope fields, reusing the maps and slices of a pooled Message when
// one is supplied. Semantics match encoding/json for every input the
// fast path accepts: unknown keys are skipped, duplicate keys follow
// the stdlib's overwrite/merge rules, null leaves struct fields
// untouched and nils out maps and slices, and field names match
// case-insensitively as a fallback. Anything the fast path cannot
// handle — syntax it rejects, numbers out of range, pathological
// nesting — makes Unmarshal fall back to encoding/json wholesale, so
// the observable behaviour (including error cases) never diverges.

// errFastDecode is the internal sentinel class for fast-path failures;
// the caller falls back to the stdlib decoder for the real error.
type decodeError struct {
	pos int
	msg string
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("wire: fast decode at offset %d: %s", e.pos, e.msg)
}

// maxFastDepth bounds recursion in the fast path. encoding/json allows
// deeper nesting (10000); inputs between the two bounds simply take the
// fallback, so nothing observable changes.
const maxFastDepth = 192

type decoder struct {
	data    []byte
	pos     int
	scratch []byte // unescape buffer, reused across strings

	// resolve makes this a projected decode (see UnmarshalProjected).
	// app is the message's origin once its key has been read; used marks
	// that a sink has decided some operation's attributes already.
	resolve Resolver
	app     *string
	used    bool
	ranged  bool // skipping an attribute: numbers must fit float64
}

// errReordered ends a projected decode that cannot stand: it read the
// app, a verb or a type chain after a sink chosen without it had skipped
// attributes, or a dependency key spelled like no encoder spells it. The
// payload is decoded again in full.
var errReordered = errors.New("wire: projected decode met its keys out of order")

func (d *decoder) errf(format string, args ...any) error {
	return &decodeError{pos: d.pos, msg: fmt.Sprintf(format, args...)}
}

// decodeFast parses data into m. m must be zeroed or pool-reset; its
// retained maps/slices (cleared by reset) are refilled in place.
func decodeFast(data []byte, m *Message, resolve Resolver) error {
	d := decoder{data: data, resolve: resolve}
	if err := d.message(m); err != nil {
		return err
	}
	d.ws()
	if d.pos != len(d.data) {
		return d.errf("trailing data")
	}
	return nil
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) next() (byte, error) {
	d.ws()
	if d.pos >= len(d.data) {
		return 0, d.errf("unexpected end of input")
	}
	return d.data[d.pos], nil
}

func (d *decoder) expect(c byte) error {
	b, err := d.next()
	if err != nil {
		return err
	}
	if b != c {
		return d.errf("expected %q, found %q", c, b)
	}
	d.pos++
	return nil
}

// literal consumes an exact literal (true/false/null tail included).
func (d *decoder) literal(s string) error {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return d.errf("invalid literal")
	}
	d.pos += len(s)
	return nil
}

// tryNull consumes a null literal if one is next, reporting whether it
// did. JSON null follows encoding/json's rules at every use site: it
// nils maps and slices and leaves everything else untouched.
func (d *decoder) tryNull() (bool, error) {
	b, err := d.next()
	if err != nil {
		return false, err
	}
	if b != 'n' {
		return false, nil
	}
	return true, d.literal("null")
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
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			out := d.data[start:d.pos]
			d.pos++
			return out, nil
		case c == '\\':
			return d.strSlow(start)
		case c < 0x20:
			return nil, d.errf("control character in string")
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				// Invalid UTF-8: stdlib replaces with U+FFFD.
				return d.strSlow(start)
			}
			d.pos += size
		}
	}
	return nil, d.errf("unterminated string")
}

// strSlow finishes parsing a string that needs unescaping (or UTF-8
// repair) into the scratch buffer. start is the offset just past the
// opening quote.
func (d *decoder) strSlow(start int) ([]byte, error) {
	buf := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = buf
			return buf, nil
		case c == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				return nil, d.errf("unterminated escape")
			}
			esc := d.data[d.pos]
			d.pos++
			switch esc {
			case '"', '\\', '/':
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
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// Try to combine a surrogate pair; a lone or invalid
					// surrogate becomes U+FFFD, as in the stdlib.
					if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
						save := d.pos
						d.pos += 2
						r2, err := d.hex4()
						if err != nil {
							return nil, err
						}
						if combined := utf16.DecodeRune(r, r2); combined != utf8.RuneError {
							r = combined
						} else {
							r = utf8.RuneError
							d.pos = save
						}
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, d.errf("invalid escape %q", esc)
			}
		case c < 0x20:
			return nil, d.errf("control character in string")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
				d.pos++
				continue
			}
			buf = append(buf, d.data[d.pos:d.pos+size]...)
			d.pos += size
		}
	}
	return nil, d.errf("unterminated string")
}

func (d *decoder) hex4() (rune, error) {
	if d.pos+4 > len(d.data) {
		return 0, d.errf("short unicode escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := d.data[d.pos+i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, d.errf("invalid unicode escape")
		}
		r = r<<4 + rune(c)
	}
	d.pos += 4
	return r, nil
}

// number scans one JSON number token, enforcing the JSON grammar (no
// leading zeros, mandatory digits around '.' and after an exponent).
func (d *decoder) number() ([]byte, error) {
	d.ws()
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

// uint64Value parses a number token into a uint64 with stdlib
// semantics: fractions, exponents, signs, and overflow all fail (and
// send the caller to the fallback, which produces the stdlib error).
func (d *decoder) uint64Value() (uint64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return 0, d.errf("number %q does not fit uint64", tok)
	}
	return v, nil
}

// parseDecimal parses a dependency token that is a canonical decimal
// uint64 — exactly what DepKey prints, so two of them are equal as
// numbers if and only if equal as strings. (The conversion does not
// allocate: ParseUint does not keep its argument, and a token that
// parses fits the stack.)
func parseDecimal(tok []byte) (uint64, bool) {
	if len(tok) > 1 && tok[0] == '0' {
		return 0, false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	return v, err == nil
}

// message parses the top-level message object.
func (d *decoder) message(m *Message) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if b, err := d.next(); err != nil {
		return err
	} else if b == '}' {
		d.pos++
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
		switch fieldName(key, messageFields) {
		case "app":
			if d.used {
				return errReordered
			}
			if err := d.stringField(&m.App, true); err != nil {
				return err
			}
			d.app = &m.App
		case "operations":
			if err := d.operations(m); err != nil {
				return err
			}
		case "dependencies":
			if err := d.depMap(&m.Dependencies, m); err != nil {
				return err
			}
		case "external_dependencies":
			if err := d.depMap(&m.External, nil); err != nil {
				return err
			}
		case "dots":
			if err := d.depMap(&m.Dots, nil); err != nil {
				return err
			}
		case "published_at":
			if err := d.publishedAt(m); err != nil {
				return err
			}
		case "generation":
			if err := d.uint64Field(&m.Generation); err != nil {
				return err
			}
		case "global_dep":
			if err := d.stringField(&m.GlobalDep, true); err != nil {
				return err
			}
		case "seq":
			if err := d.uint64Field(&m.Seq); err != nil {
				return err
			}
		case "recovered":
			if err := d.boolField(&m.Recovered); err != nil {
				return err
			}
		default:
			if err := d.skipValue(0); err != nil {
				return err
			}
		}
		b, err := d.next()
		if err != nil {
			return err
		}
		d.pos++
		if b == '}' {
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or '}' in object")
		}
	}
}

var (
	messageFields = []string{
		"app", "operations", "dependencies", "external_dependencies",
		"dots", "published_at", "generation", "global_dep", "seq", "recovered",
	}
	operationFields = []string{"operation", "types", "id", "attributes", "object_dep"}
)

// fieldName resolves a parsed key to its canonical struct field name
// with encoding/json's rules: an exact match wins, then a
// case-insensitive one; "" means unknown (skip). The exact pass
// compares without allocating.
func fieldName(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if foldEqual(key, n) {
			return n
		}
	}
	return ""
}

// foldEqual reports whether key case-folds onto the (lowercase ASCII)
// field name, covering the same two non-ASCII specials encoding/json's
// folder does: U+017F folds to s and U+212A (Kelvin) folds to k.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(name) {
			return false
		}
		var r rune
		if c := key[i]; c < utf8.RuneSelf {
			r = rune(c)
			i++
		} else {
			var size int
			r, size = utf8.DecodeRune(key[i:])
			i += size
		}
		switch {
		case r >= 'A' && r <= 'Z':
			r += 'a' - 'A'
		case r == '\u017f': // long s
			r = 's'
		case r == '\u212a': // Kelvin sign
			r = 'k'
		}
		if r != rune(name[j]) {
			return false
		}
		j++
	}
	return j == len(name)
}

// stringField parses a string member; intern is for the tokens every
// message of a stream repeats (origin, global dependency).
func (d *decoder) stringField(dst *string, intern bool) error {
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		return nil
	}
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

func (d *decoder) uint64Field(dst *uint64) error {
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		return nil
	}
	v, err := d.uint64Value()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *decoder) boolField(dst *bool) error {
	b, err := d.next()
	if err != nil {
		return err
	}
	switch b {
	case 'n':
		return d.literal("null")
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*dst = true
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*dst = false
	default:
		return d.errf("expected boolean")
	}
	return nil
}

// publishedAt hands the raw string token to time.Time's own
// UnmarshalJSON, which is exactly what encoding/json does.
func (d *decoder) publishedAt(m *Message) error {
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		return nil
	}
	b, err := d.next()
	if err != nil {
		return err
	}
	if b != '"' {
		return d.errf("expected time string")
	}
	start := d.pos
	if _, err := d.str(); err != nil {
		return err
	}
	return m.PublishedAt.UnmarshalJSON(d.data[start:d.pos])
}

// depMap parses a string→uint64 object, reusing the existing (cleared)
// map when the pool supplies one. Keys are unique per object or per
// message, so each is copied, not interned. Given the message — the
// hashed dependencies of a projected decode — canonical decimal keys are
// parsed in place into its numeric map and only the others are kept as
// strings.
func (d *decoder) depMap(dst *map[string]uint64, hashed *Message) error {
	if d.resolve == nil {
		hashed = nil
	}
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		*dst = nil
		if hashed != nil {
			clear(hashed.parsedDeps)
			hashed.depsParsed = false
		}
		return nil
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	if hashed == nil && *dst == nil {
		*dst = getDepMap()
	}
	if hashed != nil {
		if hashed.parsedDeps == nil {
			hashed.parsedDeps = make(map[uint64]uint64, 4)
		}
		hashed.depsParsed = len(*dst) == 0 // until a key has to stay a string
	}
	if b, err := d.next(); err != nil {
		return err
	} else if b == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		var (
			name    string
			k       uint64
			numeric bool
		)
		if hashed != nil {
			k, numeric = parseDecimal(key)
		}
		if !numeric {
			name = string(key)
			if _, err := strconv.ParseUint(name, 10, 64); hashed != nil && err == nil {
				// "007": the same key as "7" to Deps, another one to
				// ObjectVersion. Only the string form keeps both apart.
				return errReordered
			}
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		var v uint64
		if null, err := d.tryNull(); err != nil {
			return err
		} else if !null {
			if v, err = d.uint64Value(); err != nil {
				return err
			}
		}
		if numeric {
			hashed.parsedDeps[k] = v
		} else {
			if *dst == nil {
				*dst = getDepMap()
			}
			(*dst)[name] = v
			if hashed != nil {
				hashed.depsParsed = false
			}
		}
		b, err := d.next()
		if err != nil {
			return err
		}
		d.pos++
		if b == '}' {
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or '}' in object")
		}
	}
}

// operations parses the operations array, reusing the message's
// operation slice (and each element's attribute map) in place.
func (d *decoder) operations(m *Message) error {
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		m.Operations = nil
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	ops := m.Operations[:0]
	if b, err := d.next(); err != nil {
		return err
	} else if b == ']' {
		d.pos++
		if ops == nil {
			ops = []Operation{}
		}
		m.Operations = ops
		return nil
	}
	for {
		// Within capacity the pooled element is reused as-is: reset
		// zeroed it (keeping its attribute map and type-chain backing)
		// when the message went back to the pool, and decoding into an
		// existing element is exactly what encoding/json does when a
		// duplicate "operations" key reuses the slice.
		var op *Operation
		if len(ops) < cap(ops) {
			ops = ops[:len(ops)+1]
		} else {
			ops = append(ops, Operation{})
		}
		op = &ops[len(ops)-1]
		if err := d.operation(op); err != nil {
			return err
		}
		b, err := d.next()
		if err != nil {
			return err
		}
		d.pos++
		if b == ']' {
			m.Operations = ops
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or ']' in array")
		}
	}
}

func (d *decoder) operation(op *Operation) error {
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		return nil
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	if b, err := d.next(); err != nil {
		return err
	} else if b == '}' {
		d.pos++
		return nil
	}
	// What a sink is chosen by; an attributes member ahead of either is
	// decoded in full.
	var verbSet, typesSet bool
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		switch fieldName(key, operationFields) {
		case "operation":
			if op.projected {
				return errReordered
			}
			if null, err := d.tryNull(); err != nil {
				return err
			} else if !null {
				s, err := d.str()
				if err != nil {
					return err
				}
				op.Operation = internVerb(s)
			}
			verbSet = true
		case "types":
			if op.projected {
				return errReordered
			}
			if err := d.typeChain(op); err != nil {
				return err
			}
			typesSet = true
		case "id":
			if err := d.stringField(&op.ID, false); err != nil {
				return err
			}
		case "attributes":
			// Not over attributes an earlier member left here in full.
			project := op.projected || (d.resolve != nil && d.app != nil && verbSet && typesSet &&
				op.Operation != OpWatermark && op.Attributes == nil)
			if err := d.attributes(op, project); err != nil {
				return err
			}
		case "object_dep":
			if err := d.objectDep(op); err != nil {
				return err
			}
		default:
			if err := d.skipValue(0); err != nil {
				return err
			}
		}
		b, err := d.next()
		if err != nil {
			return err
		}
		d.pos++
		if b == '}' {
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or '}' in object")
		}
	}
}

// attributes parses an operation's attributes member: in full, or — a
// projected decode that knows the operation's origin, verb and type
// chain by now — only what the operation's sink asks for.
func (d *decoder) attributes(op *Operation, project bool) error {
	var sink Sink
	if project {
		if !op.projected {
			op.sink, op.projected, d.used = d.resolve(*d.app, op.Types), true, true
		}
		if sink = op.sink; sink == nil || !sink.Wants(op.Operation) {
			sink = nothing{}
		}
	}
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		op.Attributes = nil
		return nil
	}
	if op.Attributes == nil && sink != (nothing{}) {
		op.Attributes = getAttrMap()
	}
	return d.anyObjectInto(op.Attributes, 0, sink)
}

// nothing is the sink of an operation nobody wants the attributes of:
// the member is still checked to be the object it has to be.
type nothing struct{}

func (nothing) Wants(OpKind) bool         { return false }
func (nothing) Key([]byte) (string, bool) { return "", false }

// objectDep parses the object's dependency token: a projected decode
// keeps a canonical decimal as the number it is, anything else is a
// string unique to its object.
func (d *decoder) objectDep(op *Operation) error {
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		return nil
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	op.ObjectDep, op.depKey, op.hasKey = "", 0, false
	if d.resolve != nil {
		op.depKey, op.hasKey = parseDecimal(s)
	}
	if !op.hasKey {
		op.ObjectDep = string(s)
	}
	return nil
}

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
	if null, err := d.tryNull(); err != nil {
		return err
	} else if null {
		op.Types = nil
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	types := op.Types[:0]
	if b, err := d.next(); err != nil {
		return err
	} else if b == ']' {
		d.pos++
		if types == nil {
			types = []string{}
		}
		op.Types = types
		return nil
	}
	for {
		if null, err := d.tryNull(); err != nil {
			return err
		} else if null {
			// Null elements leave the existing backing value in place
			// (stdlib array semantics); beyond capacity that is a zero
			// string.
			if len(types) < cap(types) {
				types = types[:len(types)+1]
			} else {
				types = append(types, "")
			}
		} else {
			s, err := d.str()
			if err != nil {
				return err
			}
			types = append(types, internString(s))
		}
		b, err := d.next()
		if err != nil {
			return err
		}
		d.pos++
		if b == ']' {
			op.Types = types
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or ']' in array")
		}
	}
}

// anyValue parses an arbitrary JSON value into the model value set
// (nil, bool, float64, string, []any, map[string]any) — the same shapes
// encoding/json produces for interface{} targets, already normalized so
// the Coerce pass of the legacy decoder is unnecessary.
func (d *decoder) anyValue(depth int) (any, error) {
	if depth > maxFastDepth {
		return nil, d.errf("nesting too deep for fast path")
	}
	b, err := d.next()
	if err != nil {
		return nil, err
	}
	switch b {
	case 'n':
		return nil, d.literal("null")
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case '"':
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return string(s), nil
	case '{':
		m := make(map[string]any)
		if err := d.anyObjectInto(m, depth, nil); err != nil {
			return nil, err
		}
		return m, nil
	case '[':
		d.pos++
		// Most real-world attribute arrays are tiny; starting at capacity
		// 4 turns the 0->1->2->4 append-growth triple into one allocation.
		out := make([]any, 0, 4)
		if b, err := d.next(); err != nil {
			return nil, err
		} else if b == ']' {
			d.pos++
			return out, nil
		}
		for {
			v, err := d.anyValue(depth + 1)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			b, err := d.next()
			if err != nil {
				return nil, err
			}
			d.pos++
			if b == ']' {
				return out, nil
			}
			if b != ',' {
				return nil, d.errf("expected ',' or ']' in array")
			}
		}
	default:
		tok, err := d.number()
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, d.errf("number %q out of range", tok)
		}
		if !math.Signbit(v) && v < float64(len(smallNumbers)) && v == math.Trunc(v) {
			return smallNumbers[int(v)], nil
		}
		return v, nil
	}
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
	if depth > maxFastDepth {
		return d.errf("nesting too deep for fast path")
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	if b, err := d.next(); err != nil {
		return err
	} else if b == '}' {
		d.pos++
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
		k, wanted := "", true
		if sink == nil {
			k = internString(key)
		} else {
			k, wanted = sink.Key(key)
		}
		if wanted {
			v, err := d.anyValue(depth + 1)
			if err != nil {
				return err
			}
			m[k] = v
		} else if err := d.skipAttr(depth + 1); err != nil {
			return err
		}
		b, err := d.next()
		if err != nil {
			return err
		}
		d.pos++
		if b == '}' {
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or '}' in object")
		}
	}
}

// skipAttr scans past an attribute value nobody subscribed to. It fails
// where building the value would — a number beyond float64 — so that a
// projected decode falls back to encoding/json on exactly the payloads
// a full one does.
func (d *decoder) skipAttr(depth int) error {
	d.ranged = true
	err := d.skipValue(depth)
	d.ranged = false
	return err
}

// skipValue scans past one well-formed JSON value without building it.
func (d *decoder) skipValue(depth int) error {
	if depth > maxFastDepth {
		return d.errf("nesting too deep for fast path")
	}
	b, err := d.next()
	if err != nil {
		return err
	}
	switch b {
	case 'n':
		return d.literal("null")
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case '"':
		_, err := d.str()
		return err
	case '{':
		d.pos++
		if b, err := d.next(); err != nil {
			return err
		} else if b == '}' {
			d.pos++
			return nil
		}
		for {
			if _, err := d.str(); err != nil {
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			b, err := d.next()
			if err != nil {
				return err
			}
			d.pos++
			if b == '}' {
				return nil
			}
			if b != ',' {
				return d.errf("expected ',' or '}' in object")
			}
		}
	case '[':
		d.pos++
		if b, err := d.next(); err != nil {
			return err
		} else if b == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			b, err := d.next()
			if err != nil {
				return err
			}
			d.pos++
			if b == ']' {
				return nil
			}
			if b != ',' {
				return d.errf("expected ',' or ']' in array")
			}
		}
	default:
		tok, err := d.number()
		if err == nil && d.ranged && (len(tok) > 300 || bytes.ContainsAny(tok, "eE")) {
			if _, perr := strconv.ParseFloat(string(tok), 64); perr != nil {
				return d.errf("number %q out of range", tok)
			}
		}
		return err
	}
}
