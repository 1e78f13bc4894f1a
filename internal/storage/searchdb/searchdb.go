// Package searchdb implements the search storage engine, the
// Elasticsearch stand-in: documents are analyzed into tokens at index
// time and queried through an inverted index with term, match, and
// boolean queries, plus term-bucket aggregations for the analytics
// workloads (Table 1: "Aggregations and analytics").
//
// Synapse uses it subscriber-only, as the paper does.
package searchdb

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"synapse/internal/storage"
)

// Analyzer turns field text into index tokens.
type Analyzer func(string) []string

// SimpleAnalyzer lowercases and splits on non-alphanumeric runs — the
// "simple" analyzer the paper's Fig 4 subscriber requests.
func SimpleAnalyzer(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// KeywordAnalyzer indexes the whole value as a single token.
func KeywordAnalyzer(s string) []string {
	if s == "" {
		return nil
	}
	return []string{s}
}

// index is one named document index with per-field analyzers.
type index struct {
	analyzers map[string]Analyzer
	docs      map[string]document
	inverted  map[string]map[string]posting // field -> token -> documents
}

// posting is the documents one token is indexed for: the first inline,
// and a set only once a second joins. A token with none has no posting.
type posting struct {
	id  string
	set map[string]struct{}
}

// document is one stored document with the tokens each of its fields is
// indexed under: unindexing removes those, with no re-analysis, so it is
// right whatever analyzer the field has now.
type document struct {
	storage.Row
	tokens []fieldTokens
}

// fieldTokens is what one field's value is indexed under: a single token
// inline, none or several in many.
type fieldTokens struct {
	field string
	one   [1]string
	many  []string
}

func (ft *fieldTokens) keep(toks []string) {
	ft.many = toks
	if len(toks) == 1 && toks[0] != "" {
		ft.one[0], ft.many = toks[0], nil
	}
}

func (ft *fieldTokens) list() []string {
	if ft.one[0] != "" {
		return ft.one[:]
	}
	return ft.many
}

// tokensOf returns the tokens field is indexed under.
func (d *document) tokensOf(field string) []string {
	for i := range d.tokens {
		if d.tokens[i].field == field {
			return d.tokens[i].list()
		}
	}
	return nil
}

func newIndex() *index {
	return &index{
		analyzers: make(map[string]Analyzer),
		docs:      make(map[string]document),
		inverted:  make(map[string]map[string]posting),
	}
}

// DB is one search database instance holding named indexes.
type DB struct {
	gate *storage.Gate

	mu      sync.RWMutex
	indexes map[string]*index
	closed  bool
}

// New creates a database with an unconstrained performance profile.
func New() *DB { return NewWithProfile(storage.Profile{}) }

// NewWithProfile creates a database with an explicit performance profile.
func NewWithProfile(p storage.Profile) *DB {
	return &DB{gate: storage.NewGate(p), indexes: make(map[string]*index)}
}

// SetAnalyzer declares the analyzer for a field of an index (the
// property mapping of Fig 4's Sub1b). Fields without a declared analyzer
// are indexed with KeywordAnalyzer.
func (db *DB) SetAnalyzer(indexName, field string, a Analyzer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.index(indexName).analyzers[field] = a
}

func (db *DB) index(name string) *index {
	ix, ok := db.indexes[name]
	if !ok {
		ix = newIndex()
		db.indexes[name] = ix
	}
	return ix
}

// analyze returns the tokens v is indexed under in field. A field with no
// declared analyzer is KeywordAnalyzer's, done here without its slice.
func (ix *index) analyze(field string, v any) fieldTokens {
	a, ft := ix.analyzers[field], fieldTokens{field: field}
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case []any:
		if a == nil {
			a = KeywordAnalyzer
		}
		var out []string
		for _, e := range t {
			if s, ok := e.(string); ok {
				out = append(out, a(s)...)
			}
		}
		ft.keep(out)
		return ft
	case nil:
		return ft
	default:
		s = strings.TrimSpace(strings.ToLower(flatten(t)))
	}
	if a == nil {
		ft.one[0] = s
	} else {
		ft.keep(a(s))
	}
	return ft
}

func flatten(v any) string {
	switch t := v.(type) {
	case bool:
		if t {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		// The conversions below are implementation-defined beyond
		// int64's range and for NaN: such a value keeps its own shortest
		// representation.
		if t < -(1<<63) || t >= 1<<63 || math.IsNaN(t) {
			return strconv.FormatFloat(t, 'g', -1, 64)
		}
		if t == math.Trunc(t) {
			return strconv.FormatInt(int64(t), 10)
		}
		// Searchable floats beyond integers are not needed by the
		// workloads; a coarse representation suffices.
		return strconv.FormatInt(int64(t*1000), 10) + "e-3"
	}
	return ""
}

func (ix *index) post(id, field, tok string) {
	m := ix.inverted[field]
	if m == nil {
		m = make(map[string]posting)
		ix.inverted[field] = m
	}
	p, ok := m[tok]
	switch {
	case !ok:
		m[tok] = posting{id: id}
	case p.set != nil:
		p.set[id] = struct{}{}
	case p.id != id:
		m[tok] = posting{set: map[string]struct{}{p.id: {}, id: {}}}
	}
}

// unpost drops id from tok's posting. It is called only for a token the
// document is indexed under, so an inline posting is the document's own.
func (ix *index) unpost(id, field, tok string) {
	m := ix.inverted[field]
	if p := m[tok]; p.set != nil {
		delete(p.set, id)
		if len(p.set) > 0 {
			return
		}
	}
	delete(m, tok)
}

func (ix *index) unindexDoc(doc document) {
	for _, ft := range doc.tokens {
		for _, tok := range ft.list() {
			ix.unpost(doc.ID, ft.field, tok)
		}
	}
}

// merge copies the columns into the stored document, in place, and
// returns it. It analyzes only the new values and moves only the postings
// whose token changed.
func (ix *index) merge(doc document, cols map[string]any) document {
	for field, v := range cols {
		v = storage.CloneValue(v)
		doc.Cols[field] = v
		toks := ix.analyze(field, v)
		old, now := doc.tokensOf(field), toks.list()
		if slices.Equal(old, now) {
			continue
		}
		for _, tok := range old {
			if !slices.Contains(now, tok) {
				ix.unpost(doc.ID, field, tok)
			}
		}
		for _, tok := range now {
			if !slices.Contains(old, tok) {
				ix.post(doc.ID, field, tok)
			}
		}
		if i := slices.IndexFunc(doc.tokens, func(ft fieldTokens) bool { return ft.field == field }); i >= 0 {
			doc.tokens[i] = toks
		} else {
			doc.tokens = append(doc.tokens, toks)
		}
	}
	return doc
}

// Index inserts or replaces a document.
func (db *DB) Index(indexName string, doc storage.Row) error {
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		ix := db.index(indexName)
		if old, ok := ix.docs[doc.ID]; ok {
			ix.unindexDoc(old)
		}
		stored := document{
			Row:    storage.Row{ID: doc.ID, Cols: make(map[string]any, len(doc.Cols))},
			tokens: make([]fieldTokens, 0, len(doc.Cols)),
		}
		ix.docs[doc.ID] = ix.merge(stored, doc.Cols)
	})
	return err
}

// Update merges the partial document into the indexed one (_update).
func (db *DB) Update(indexName string, doc storage.Row) error {
	err := storage.ErrNotFound
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		ix := db.index(indexName)
		if stored, ok := ix.docs[doc.ID]; ok {
			ix.docs[doc.ID] = ix.merge(stored, doc.Cols)
			err = nil
		}
	})
	return err
}

// Exists reports whether the document is indexed, copying nothing out.
func (db *DB) Exists(indexName, id string) bool {
	var found bool
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if ix, ok := db.indexes[indexName]; ok {
			_, found = ix.docs[id]
		}
	})
	return found
}

// Get returns a document by id.
func (db *DB) Get(indexName, id string) (storage.Row, error) {
	var row storage.Row
	err := storage.ErrNotFound
	db.gate.Read(func() {
		if doc, ok := db.copyOut(indexName, id); ok {
			row, err = doc, nil
		}
	})
	return row, err
}

// copyOut is one document's copy out, under the read lock.
func (db *DB) copyOut(indexName, id string) (storage.Row, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if ix, ok := db.indexes[indexName]; ok {
		if doc, ok := ix.docs[id]; ok {
			return doc.Clone(), true
		}
	}
	return storage.Row{}, false
}

// Delete removes a document by id and returns it: the engine no longer
// holds it, so it is handed over, not copied.
func (db *DB) Delete(indexName, id string) (storage.Row, error) {
	var gone storage.Row
	err := storage.ErrNotFound
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		ix, ok := db.indexes[indexName]
		if !ok {
			return
		}
		doc, ok := ix.docs[id]
		if !ok {
			return
		}
		ix.unindexDoc(doc)
		delete(ix.docs, id)
		gone, err = doc.Row, nil
	})
	return gone, err
}

// DeleteRange removes every document with from <= id < to in one
// statement (delete-by-query on an id range), inverted-index entries
// included, and reports how many went.
func (db *DB) DeleteRange(indexName, from, to string) (int, error) {
	var n int
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		ix, ok := db.indexes[indexName]
		if !ok {
			return
		}
		for id, doc := range ix.docs {
			if id >= from && id < to {
				ix.unindexDoc(doc)
				delete(ix.docs, id)
				n++
			}
		}
	})
	return n, err
}

// Query is a search query: a tree of term/match/bool nodes.
type Query struct {
	// Term matches documents whose field produced exactly this token.
	Term *TermQuery
	// Match analyzes the text and requires all resulting tokens (an AND
	// match query).
	Match *MatchQuery
	// All of these must match.
	Must []Query
	// At least one of these must match.
	Should []Query
}

// TermQuery matches a single token in a field.
type TermQuery struct {
	Field string
	Token string
}

// MatchQuery analyzes Text with the field's analyzer and requires all
// tokens.
type MatchQuery struct {
	Field string
	Text  string
}

// Search returns the ids of matching documents, sorted.
func (db *DB) Search(indexName string, q Query) ([]string, error) {
	var out []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		ix, ok := db.indexes[indexName]
		if !ok {
			return
		}
		set := ix.eval(q)
		out = make([]string, 0, len(set))
		for id := range set {
			out = append(out, id)
		}
		sort.Strings(out)
	})
	return out, nil
}

func (ix *index) eval(q Query) map[string]struct{} {
	switch {
	case q.Term != nil:
		return ix.postings(q.Term.Field, q.Term.Token)
	case q.Match != nil:
		var acc map[string]struct{}
		toks := ix.analyze(q.Match.Field, q.Match.Text)
		for _, tok := range toks.list() {
			s := ix.postings(q.Match.Field, tok)
			if acc == nil {
				acc = s
			} else {
				acc = intersect(acc, s)
			}
			if len(acc) == 0 {
				return nil
			}
		}
		return acc
	case len(q.Must) > 0 || len(q.Should) > 0:
		var acc map[string]struct{}
		first := true
		for _, sub := range q.Must {
			s := ix.eval(sub)
			if first {
				acc, first = s, false
			} else {
				acc = intersect(acc, s)
			}
			if len(acc) == 0 {
				return nil
			}
		}
		if len(q.Should) > 0 {
			union := make(map[string]struct{})
			for _, sub := range q.Should {
				for id := range ix.eval(sub) {
					union[id] = struct{}{}
				}
			}
			if first {
				return union
			}
			return intersect(acc, union)
		}
		return acc
	default:
		// Match-all.
		all := make(map[string]struct{}, len(ix.docs))
		for id := range ix.docs {
			all[id] = struct{}{}
		}
		return all
	}
}

// postings returns the documents tok is indexed for in field, as a set
// the caller owns.
func (ix *index) postings(field, tok string) map[string]struct{} {
	p, ok := ix.inverted[field][tok]
	switch {
	case !ok:
		return nil
	case p.set == nil:
		return map[string]struct{}{p.id: {}}
	}
	return maps.Clone(p.set)
}

func intersect(a, b map[string]struct{}) map[string]struct{} {
	out := make(map[string]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

// Bucket is one term-aggregation bucket.
type Bucket struct {
	Token string
	Count int
}

// Aggregate computes term buckets over a field for documents matching q,
// sorted by descending count then token.
func (db *DB) Aggregate(indexName, field string, q Query) ([]Bucket, error) {
	var out []Bucket
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		ix, ok := db.indexes[indexName]
		if !ok {
			return
		}
		match := ix.eval(q)
		counts := make(map[string]int)
		for id := range match {
			doc := ix.docs[id]
			for _, tok := range doc.tokensOf(field) {
				counts[tok]++
			}
		}
		for tok, n := range counts {
			out = append(out, Bucket{Token: tok, Count: n})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
			return out[i].Token < out[j].Token
		})
	})
	return out, nil
}

// ScanFrom streams documents with id >= start in id order until fn
// returns false. A document is copied out as fn gets it, and fn runs
// outside the lock: one deleted in the meantime is skipped.
func (db *DB) ScanFrom(indexName, start string, fn func(storage.Row) bool) error {
	var ids []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if ix, ok := db.indexes[indexName]; ok {
			ids = make([]string, 0, len(ix.docs))
			for id := range ix.docs {
				if id >= start {
					ids = append(ids, id)
				}
			}
		}
	})
	sort.Strings(ids)
	for _, id := range ids {
		if doc, ok := db.copyOut(indexName, id); ok && !fn(doc) {
			break
		}
	}
	return nil
}

// Len reports the number of documents in an index.
func (db *DB) Len(indexName string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if ix, ok := db.indexes[indexName]; ok {
		return len(ix.docs)
	}
	return 0
}

// Close marks the database closed; subsequent writes fail.
func (db *DB) Close() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
}
