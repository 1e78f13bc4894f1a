// Package graphorm adapts the graph engine (graphdb) to the Synapse ORM
// surface — the Neo4j stand-in from Table 1. Neo4j is subscriber-only in
// the paper (Table 3), so publisher-side Create/Update return
// orm.ErrReadOnly.
//
// Persisted models become labelled nodes; relationship models are
// typically NOT persisted here — instead an Observer subscribes to them
// and maintains edges through the adapter's Relate/Unrelate helpers,
// which is exactly the Fig 5 integration pattern (friendship rows as
// graph edges).
package graphorm

import (
	"strings"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/graphdb"
)

// Mapper implements the subscriber half of orm.Mapper over graphdb.
type Mapper struct {
	orm.Registry
	db *graphdb.DB
}

// New wraps a graph database.
func New(db *graphdb.DB) *Mapper {
	m := &Mapper{db: db}
	m.Bind(orm.Traits{ORM: "graphorm", Vendor: "neo4j"}, binding{db})
	return m
}

// DB exposes the underlying engine (observer callbacks traverse it).
func (m *Mapper) DB() *graphdb.DB { return m.db }

// Register records the descriptor under the model's own name, which is
// its nodes' label; nodes are created lazily on Save.
func (m *Mapper) Register(d *model.Descriptor) error {
	m.RegisterAs(d, d.Name)
	return nil
}

// nodeID namespaces node identities per model so that, e.g., a User and
// a Product with the same primary key do not collide.
func nodeID(modelName, id string) string { return modelName + ":" + id }

// binding is graphdb as the skeleton sees it: a model's rows are the
// nodes labelled with its name, ids prefixed by it.
type binding struct{ db *graphdb.DB }

func (b binding) Get(label, id string) (storage.Row, error) {
	_, props, err := b.db.Node(nodeID(label, id))
	return storage.Row{ID: id, Cols: props}, err
}

func (b binding) Exists(label, id string) (bool, error) {
	return b.db.Exists(nodeID(label, id)), nil
}

// Insert merges the node: MERGE creates it or updates it alike.
func (b binding) Insert(label string, row storage.Row, _ bool) (storage.Row, error) {
	return storage.Row{}, b.db.MergeNode(label, nodeID(label, row.ID), row.Cols)
}

func (b binding) Update(label string, row storage.Row, _ bool) (storage.Row, error) {
	return b.Insert(label, row, false)
}

func (b binding) Delete(label, id string) (storage.Row, error) {
	props, err := b.db.DeleteNode(nodeID(label, id))
	return storage.Row{ID: id, Cols: props}, err
}

func (b binding) DeleteRange(label, from, to string) (int, error) {
	return b.db.DeleteNodeRange(nodeID(label, from), nodeID(label, to))
}

func (b binding) ScanFrom(label, from string, fn func(storage.Row) bool) error {
	prefix := label + ":"
	return b.db.ScanFrom(prefix+from, func(row storage.Row) bool {
		id, ok := strings.CutPrefix(row.ID, prefix)
		if !ok || id == "" {
			// Node ids sort by model prefix; anything else means we ran
			// past this model's range.
			return row.ID < prefix
		}
		row.ID = id
		delete(row.Cols, "_label") // the row is the caller's copy
		return fn(row)
	})
}

func (b binding) Len(label string) int { return len(b.db.NodesByLabel(label)) }

// Relate adds a mutual relationship between two model instances (the
// `has_many :both` of Fig 5's Neo4j subscriber).
func (m *Mapper) Relate(modelA, idA, rel, modelB, idB string) error {
	m.Stats().Writes.Add(1)
	return m.db.RelateBoth(nodeID(modelA, idA), rel, nodeID(modelB, idB))
}

// Unrelate removes a mutual relationship.
func (m *Mapper) Unrelate(modelA, idA, rel, modelB, idB string) error {
	m.Stats().Writes.Add(1)
	return m.db.UnrelateBoth(nodeID(modelA, idA), rel, nodeID(modelB, idB))
}

// Neighbors returns the ids of directly related instances of the model.
func (m *Mapper) Neighbors(modelName, id, rel string) []string {
	m.Stats().Reads.Add(1)
	return stripIDs(modelName, m.db.Neighbors(nodeID(modelName, id), rel))
}

// Network returns the ids of instances within depth hops.
func (m *Mapper) Network(modelName, id, rel string, depth int) []string {
	m.Stats().Reads.Add(1)
	return stripIDs(modelName, m.db.Traverse(nodeID(modelName, id), rel, depth))
}

func stripIDs(modelName string, nids []string) []string {
	prefix := modelName + ":"
	out := make([]string, 0, len(nids))
	for _, nid := range nids {
		if len(nid) > len(prefix) && nid[:len(prefix)] == prefix {
			out = append(out, nid[len(prefix):])
		}
	}
	return out
}

var _ orm.Mapper = (*Mapper)(nil)
