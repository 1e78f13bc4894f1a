package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"synapse/internal/model"
)

// The hand-rolled encoder. The output is byte-for-byte what
// encoding/json.Marshal makes of the message as a JSON document whose
// dependency lists are maps keyed by token text — same field order, the
// same sorted map keys, the same HTML-escaped string encoding, the same
// ES6-style float rendering — but built by appending straight into one
// buffer, with no reflection and no intermediate values. Strings that
// need escaping (control bytes, quotes, `<>&`, invalid UTF-8,
// U+2028/U+2029) are rare on this path and are delegated to
// encoding/json for the single value, which keeps the equivalence
// guarantee absolute without reimplementing the escaper.

// encoder carries one encode's scratch state: the output buffer and a
// reusable key slice for sorting map keys. Encoders are pooled; an
// encode borrows one, appends, copies out, and returns it.
type encoder struct {
	buf  []byte
	keys []string
}

var encPool = sync.Pool{
	New: func() any { return &encoder{buf: make([]byte, 0, 1024)} },
}

// Marshal encodes the message as JSON and returns an exact-size copy of
// the pooled buffer's bytes — the single allocation of the encode path.
// It fails where encoding/json would (a non-finite float, a year outside
// [0, 9999]) and where the decoder would: an attribute nested deeper
// than maxDepth, a dependency token of the wrong form or out of order.
func Marshal(m *Message) ([]byte, error) {
	var out []byte
	err := WithEncoded(m, func(b []byte) error {
		out = make([]byte, len(b))
		copy(out, b)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return out, nil
}

// WithEncoded encodes the message into a pooled buffer, hands the bytes
// to fn, and reclaims the buffer when fn returns. The payload is only
// valid inside fn: callers that retain it (brokers, journals) must copy
// — which they do anyway when they convert to string or persist.
func WithEncoded(m *Message, fn func(payload []byte) error) error {
	e := encPool.Get().(*encoder)
	e.buf = e.buf[:0]
	e.keys = e.keys[:0]
	if err := e.message(m); err != nil {
		encPool.Put(e)
		return err
	}
	err := fn(e.buf)
	encPool.Put(e)
	return err
}

func (e *encoder) message(m *Message) error {
	e.buf = append(e.buf, `{"app":`...)
	e.str(m.App)
	e.buf = append(e.buf, `,"operations":`...)
	if m.Operations == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range m.Operations {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.operation(&m.Operations[i]); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `,"dependencies":`...)
	hashed, names := m.splitDeps()
	if err := e.deps(hashed, hashedForm); err != nil {
		return err
	}
	if len(m.External) > 0 {
		e.buf = append(e.buf, `,"external_dependencies":`...)
		if err := e.deps(m.External, eitherForm); err != nil {
			return err
		}
	}
	if len(names) > 0 {
		e.buf = append(e.buf, `,"dots":`...)
		if err := e.deps(names, nameForm); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, `,"published_at":`...)
	if err := e.time(m.PublishedAt); err != nil {
		return err
	}
	e.buf = append(e.buf, `,"generation":`...)
	e.buf = strconv.AppendUint(e.buf, m.Generation, 10)
	if m.GlobalDep != nil {
		e.buf = append(e.buf, `,"global_dep":`...)
		if err := e.token(*m.GlobalDep, eitherForm); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, `,"seq":`...)
	e.buf = strconv.AppendUint(e.buf, m.Seq, 10)
	if m.Recovered {
		e.buf = append(e.buf, `,"recovered":true`...)
	}
	e.buf = append(e.buf, '}')
	return nil
}

func (e *encoder) operation(o *Operation) error {
	e.buf = append(e.buf, `{"operation":`...)
	e.str(string(o.Operation))
	e.buf = append(e.buf, `,"types":`...)
	if o.Types == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, t := range o.Types {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(t)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `,"id":`...)
	e.str(o.ID)
	if o.lens != nil {
		if err := e.projected(o.lens, o.rec); err != nil {
			return err
		}
	} else if len(o.Attributes) > 0 {
		e.buf = append(e.buf, `,"attributes":`...)
		if err := e.anyMap(o.Attributes, 0); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, `,"object_dep":`...)
	if err := e.token(o.Object, eitherForm); err != nil {
		return err
	}
	e.buf = append(e.buf, '}')
	return nil
}

// projected encodes what lens reads from rec as the map lens.Read would
// build encodes: in name order, and no "attributes" key when it is empty.
func (e *encoder) projected(lens *model.Projection, rec *model.Record) error {
	start := len(e.buf)
	e.buf = append(e.buf, `,"attributes":{`...)
	open := len(e.buf)
	err := lens.Each(rec, func(name string, v any) error {
		if len(e.buf) > open {
			e.buf = append(e.buf, ',')
		}
		e.str(name)
		e.buf = append(e.buf, ':')
		return e.value(v, 1)
	})
	switch {
	case err != nil:
		return err
	case len(e.buf) == open:
		e.buf = e.buf[:start]
	default:
		e.buf = append(e.buf, '}')
	}
	return nil
}

// deps encodes a run of dependencies as the object it stands for. It
// refuses what the decoder refuses: a token of a form the member does
// not take, or one that does not follow the token before it.
func (e *encoder) deps(deps []Dep, form tokenForm) error {
	e.buf = append(e.buf, '{')
	for i, d := range deps {
		if i > 0 {
			if deps[i-1].compare(d.Token) >= 0 {
				return fmt.Errorf("dependency %v out of order", d.Token)
			}
			e.buf = append(e.buf, ',')
		}
		if err := e.token(d.Token, form); err != nil {
			return err
		}
		e.buf = append(e.buf, ':')
		e.buf = strconv.AppendUint(e.buf, d.Version, 10)
	}
	e.buf = append(e.buf, '}')
	return nil
}

// token encodes a dependency token as its text: a hashed key's canonical
// decimal, or the name. A name must be valid UTF-8: str would write
// U+FFFD for a bad byte, and the decoder would then read another name,
// perhaps out of order.
func (e *encoder) token(t Token, form tokenForm) error {
	switch {
	case t.Name == "" && form != nameForm:
		e.buf = append(e.buf, '"')
		e.buf = strconv.AppendUint(e.buf, t.Key, 10)
		e.buf = append(e.buf, '"')
	case isName(t.Name) && form != hashedForm && utf8.ValidString(t.Name):
		e.str(t.Name)
	default:
		return fmt.Errorf("dependency %v is not a %s", t, form)
	}
	return nil
}

// compare orders tokens by their text, the order encoding/json sorts a
// map's keys in.
func (t Token) compare(u Token) int {
	if t.Name != "" && u.Name != "" {
		return strings.Compare(t.Name, u.Name)
	}
	var x, y [20]byte
	return bytes.Compare(t.text(x[:0]), u.text(y[:0]))
}

// text appends the token's text to b.
func (t Token) text(b []byte) []byte {
	if t.Name != "" {
		return append(b, t.Name...)
	}
	return strconv.AppendUint(b, t.Key, 10)
}

// String renders the token as the wire writes it, unquoted.
func (t Token) String() string { return string(t.text(nil)) }

// anyMap sorts and emits a generic object. It borrows a segment of the
// pooled key slice (offset-based, because nested maps recurse through
// here); the segment is released on return. Iteration stays safe if a
// nested call grows e.keys — the local slice header keeps the original
// backing array alive.
func (e *encoder) anyMap(m map[string]any, depth int) error {
	n := len(e.keys)
	for k := range m {
		e.keys = append(e.keys, k)
	}
	keys := e.keys[n:]
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.str(k)
		e.buf = append(e.buf, ':')
		if err := e.value(m[k], depth+1); err != nil {
			e.keys = e.keys[:n]
			return err
		}
	}
	e.buf = append(e.buf, '}')
	e.keys = e.keys[:n]
	return nil
}

// value encodes one attribute value at the given depth (an attribute is
// at 1). The coerced model value set (nil, bool, int64, float64, string,
// []any, map[string]any) is handled inline; anything else falls back to
// encoding/json for that value, so exotic types stay byte-compatible
// without a reflection fast path. A nil slice or map is null, as
// encoding/json writes it. Like the decoder, it refuses a value nested
// deeper than maxDepth.
func (e *encoder) value(v any, depth int) error {
	if depth > maxDepth {
		return errTooDeep
	}
	switch t := v.(type) {
	case nil:
		e.buf = append(e.buf, "null"...)
	case bool:
		if t {
			e.buf = append(e.buf, "true"...)
		} else {
			e.buf = append(e.buf, "false"...)
		}
	case string:
		e.str(t)
	case int64:
		e.buf = strconv.AppendInt(e.buf, t, 10)
	case float64:
		return e.float(t, 64)
	case int:
		e.buf = strconv.AppendInt(e.buf, int64(t), 10)
	case int32:
		e.buf = strconv.AppendInt(e.buf, int64(t), 10)
	case uint64:
		e.buf = strconv.AppendUint(e.buf, t, 10)
	case float32:
		return e.float(float64(t), 32)
	case []any:
		if t == nil {
			return e.value(nil, depth)
		}
		e.buf = append(e.buf, '[')
		for i, el := range t {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.value(el, depth+1); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	case []string:
		if t == nil {
			return e.value(nil, depth)
		}
		if len(t) > 0 && depth >= maxDepth {
			return errTooDeep
		}
		e.buf = append(e.buf, '[')
		for i, el := range t {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(el)
		}
		e.buf = append(e.buf, ']')
	case map[string]any:
		if t == nil {
			return e.value(nil, depth)
		}
		return e.anyMap(t, depth)
	default:
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		// What encoding/json wrote may nest deeper still: the decoder's
		// own scan says whether it reads it.
		d := decoder{data: b}
		if _, err := d.value(depth, false); err != nil {
			return err
		}
		e.buf = append(e.buf, b...)
	}
	return nil
}

// float matches encoding/json's ES6-style number rendering: shortest
// representation, 'f' form in the human range, 'e' form with a trimmed
// single-digit exponent outside it.
func (e *encoder) float(f float64, bits int) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("unsupported float value %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, bits)
	if format == 'e' {
		// Trim a leading exponent zero: e-09 becomes e-9.
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
	return nil
}

// time encodes a timestamp exactly as time.Time.MarshalJSON does,
// including its two strictness errors (year range, sub-minute zone
// offsets), but appending in place.
func (e *encoder) time(t time.Time) error {
	if y := t.Year(); y < 0 || y >= 10000 {
		return fmt.Errorf("year outside of range [0,9999]")
	}
	if _, offset := t.Zone(); offset%60 != 0 {
		return fmt.Errorf("timezone offset has fractional minute")
	}
	e.buf = append(e.buf, '"')
	e.buf = t.AppendFormat(e.buf, time.RFC3339Nano)
	e.buf = append(e.buf, '"')
	return nil
}

// htmlSafe marks the ASCII bytes encoding/json's default (HTML-escaping)
// encoder emits verbatim inside strings.
var htmlSafe = func() (s [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		s[b] = true
	}
	s['"'] = false
	s['\\'] = false
	s['<'] = false
	s['>'] = false
	s['&'] = false
	return s
}()

// str encodes a string, emitting clean UTF-8 directly and delegating
// anything that needs escaping to encoding/json for exact equivalence.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !htmlSafe[c] {
				e.strSlow(s)
				return
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			e.strSlow(s)
			return
		}
		i += size
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

func (e *encoder) strSlow(s string) {
	b, err := json.Marshal(s)
	if err != nil { // unreachable: strings always marshal
		b = []byte(`""`)
	}
	e.buf = append(e.buf, b...)
}
