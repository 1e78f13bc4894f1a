// Package storage holds the engine-neutral definitions shared by the five
// database engines Synapse replicates across: rows, predicates, errors,
// and the capacity/latency gate that models each engine's performance
// envelope for the scalability experiments.
//
// Each concrete engine lives in its own subpackage:
//
//	reldb    — relational (PostgreSQL / MySQL / Oracle stand-in)
//	docdb    — document (MongoDB / TokuMX / RethinkDB stand-in)
//	coldb    — column-family (Cassandra stand-in)
//	searchdb — search (Elasticsearch stand-in)
//	graphdb  — graph (Neo4j stand-in)
//
// # Row ownership
//
// One rule holds for all five engines, so that no caller ever copies a
// row to protect it or itself: a stored row belongs to the engine and
// shares nothing, at any depth, with a value a caller holds.
//
//   - In: an engine copies the values a caller writes with CloneValue. It
//     makes a new map only when it creates the row; a merge copies each
//     value into the stored row in place — safe, because every reader
//     copies out under the engine's read lock.
//   - Out: an engine copies a row exactly once for a caller that gets to
//     read it — a point read, each row of a scan as it is handed over
//     (not the rows past where the caller stops), the row a write query
//     returns when its caller asks for it (returning) — and the caller
//     owns that copy outright.
//   - A call that hands no row back copies nothing out: the existence
//     probe (Exists), and a write whose caller does not ask for the row
//     or whose query cannot return one.
//   - A delete hands over the row it removes (DELETE ... RETURNING *,
//     findOneAndDelete), uncopied: the engine holds it no more, so the
//     caller owns it outright. One that cannot return it (MySQL, a
//     Cassandra tombstone) returns a zero row.
//   - A row an engine drops that nothing else holds (a range delete, a
//     delete a transaction commits) gives its map back with Recycle, and
//     Clone reuses it; a row a delete hands over is the caller's and
//     never goes back.
package storage

import (
	"cmp"
	"errors"
	"strings"
)

// Errors shared by all engines.
var (
	ErrNotFound = errors.New("storage: not found")
	ErrExists   = errors.New("storage: already exists")
	ErrNoTable  = errors.New("storage: no such table")
	ErrTxClosed = errors.New("storage: transaction closed")
	ErrClosed   = errors.New("storage: engine closed")
)

// Row is the engine-neutral record representation: an identity plus a
// flat column map. Engines that support richer values (nested documents,
// arrays) store them inside Cols.
type Row struct {
	ID   string
	Cols map[string]any
}

// Clone returns a deep-enough copy for the value set engines store
// (scalars, []any, map[string]any). A small row's map comes from the
// maps dropped rows gave back, when there is one.
func (r Row) Clone() Row {
	out := Row{ID: r.ID}
	if len(r.Cols) <= smallRow {
		select {
		case out.Cols = <-rowMaps:
		default:
		}
	}
	if out.Cols == nil {
		out.Cols = make(map[string]any, len(r.Cols))
	}
	for k, v := range r.Cols {
		out.Cols[k] = CloneValue(v)
	}
	return out
}

// Recycle gives the map of a row the engine dropped back for Clone to
// reuse. Only an engine calls it, on a row nothing else holds; a map
// larger than one swiss-table group, or one the pool has no room for, is
// left to the collector.
func (r Row) Recycle() {
	if r.Cols == nil || len(r.Cols) > smallRow {
		return
	}
	clear(r.Cols)
	select {
	case rowMaps <- r.Cols:
	default:
	}
}

// smallRow is the most columns a map holds in one swiss-table group, so
// that a recycled map fits any row Clone gives it without growing.
const smallRow = 8

// rowMaps holds the maps dropped rows gave back. It is bounded at one
// journal cut's worth (the publisher truncates its outbox 256 entries at
// a time), so the maps a cut frees serve the entries that follow it.
var rowMaps = make(chan map[string]any, 256)

// CloneValue deep-copies one column value (scalars are returned as is):
// the copy in and the copy out of the row-ownership rule.
func CloneValue(v any) any {
	switch t := v.(type) {
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = CloneValue(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = CloneValue(e)
		}
		return out
	default:
		return v
	}
}

// Op is a predicate comparison operator.
type Op int

const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Contains // list membership or substring, engine-defined
)

// Predicate filters rows in scans: Field Op Value.
type Predicate struct {
	Field string
	Op    Op
	Value any
}

// Match reports whether the row satisfies the predicate.
func (p Predicate) Match(r Row) bool {
	v, ok := r.Cols[p.Field]
	if !ok {
		return false
	}
	switch p.Op {
	case Eq:
		return DeepEqual(v, p.Value)
	case Ne:
		return !DeepEqual(v, p.Value)
	case Lt, Le, Gt, Ge:
		c, ok := compare(v, p.Value)
		if !ok {
			return false
		}
		switch p.Op {
		case Lt:
			return c < 0
		case Le:
			return c <= 0
		case Gt:
			return c > 0
		default:
			return c >= 0
		}
	case Contains:
		switch hay := v.(type) {
		case []any:
			for _, e := range hay {
				if DeepEqual(e, p.Value) {
					return true
				}
			}
			return false
		case string:
			needle, ok := p.Value.(string)
			return ok && strings.Contains(hay, needle)
		}
		return false
	}
	return false
}

// MatchAll reports whether the row satisfies every predicate.
func MatchAll(r Row, preds []Predicate) bool {
	for _, p := range preds {
		if !p.Match(r) {
			return false
		}
	}
	return true
}

// DeepEqual compares two engine values over the JSON-safe value set,
// treating int64 and float64 representing the same number as equal.
func DeepEqual(a, b any) bool {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		return af == bf
	}
	switch av := a.(type) {
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !DeepEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, v := range av {
			ov, ok := bv[k]
			if !ok || !DeepEqual(v, ov) {
				return false
			}
		}
		return true
	}
	switch b.(type) {
	case []any, map[string]any:
		return false
	}
	return a == b
}

// compare orders two numbers or two strings; ok is false for any other
// pair.
func compare(a, b any) (int, bool) {
	if af, ok := toFloat(a); ok {
		bf, ok := toFloat(b)
		return cmp.Compare(af, bf), ok
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	return cmp.Compare(as, bs), aok && bok
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	case int:
		return float64(t), true
	}
	return 0, false
}
