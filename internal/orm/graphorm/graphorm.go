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
	"fmt"

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
func New(db *graphdb.DB) *Mapper { return &Mapper{db: db} }

// Name identifies the ORM.
func (m *Mapper) Name() string { return "graphorm" }

// Engine identifies the backing vendor.
func (m *Mapper) Engine() string { return "neo4j" }

// DB exposes the underlying engine (observer callbacks traverse it).
func (m *Mapper) DB() *graphdb.DB { return m.db }

// Register records the descriptor; nodes are created lazily on Save.
func (m *Mapper) Register(d *model.Descriptor) error {
	m.Registry.Add(d)
	return nil
}

func (m *Mapper) descriptor(modelName string) (*model.Descriptor, error) {
	d, ok := m.Descriptor(modelName)
	if !ok {
		return nil, fmt.Errorf("%w: %s", orm.ErrUnknownModel, modelName)
	}
	return d, nil
}

// nodeID namespaces node identities per model so that, e.g., a User and
// a Product with the same primary key do not collide.
func nodeID(modelName, id string) string { return modelName + ":" + id }

func toRecord(modelName, nid string, props map[string]any) *model.Record {
	rec := model.NewRecord(modelName, nid[len(modelName)+1:])
	rec.Merge(props)
	return rec
}

// Find loads one node by model-scoped id.
func (m *Mapper) Find(modelName, id string) (*model.Record, error) {
	if _, err := m.descriptor(modelName); err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	_, props, err := m.db.Node(nodeID(modelName, id))
	if err != nil {
		return nil, err
	}
	return toRecord(modelName, nodeID(modelName, id), props), nil
}

// Create is unsupported: the adapter is subscriber-only.
func (m *Mapper) Create(*model.Record) (*model.Record, error) { return nil, orm.ErrReadOnly }

// Update is unsupported: the adapter is subscriber-only.
func (m *Mapper) Update(*model.Record) (*model.Record, error) { return nil, orm.ErrReadOnly }

// Delete detaches and removes a node.
func (m *Mapper) Delete(modelName, id string) error {
	if _, err := m.descriptor(modelName); err != nil {
		return err
	}
	rec := model.NewRecord(modelName, id)
	m.Stats().Reads.Add(1)
	if _, props, err := m.db.Node(nodeID(modelName, id)); err == nil {
		rec.Merge(props)
	}
	if err := m.RunCallbacks(model.BeforeDestroy, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.DeleteNode(nodeID(modelName, id)); err != nil {
		return err
	}
	return m.RunCallbacks(model.AfterDestroy, rec)
}

// DeleteRange detaches and removes the model's nodes with
// from <= id < to in one statement.
func (m *Mapper) DeleteRange(modelName, from, to string) (int, error) {
	if _, err := m.descriptor(modelName); err != nil {
		return 0, err
	}
	return m.db.DeleteNodeRange(nodeID(modelName, from), nodeID(modelName, to))
}

// Save merges a labelled node with the record's attributes as properties.
func (m *Mapper) Save(rec *model.Record) error {
	d, err := m.descriptor(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	_, _, findErr := m.db.Node(nodeID(rec.Model, rec.ID))
	exists := findErr == nil
	before, after := model.BeforeCreate, model.AfterCreate
	if exists {
		before, after = model.BeforeUpdate, model.AfterUpdate
	}
	if err := m.RunCallbacks(before, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.MergeNode(rec.Model, nodeID(rec.Model, rec.ID), rec.Clone().Attrs); err != nil {
		return err
	}
	return m.RunCallbacks(after, rec)
}

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

// Each streams nodes of the model with id >= from in id order.
func (m *Mapper) Each(modelName, from string, fn func(*model.Record) bool) error {
	if _, err := m.descriptor(modelName); err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	prefix := modelName + ":"
	return m.db.ScanFrom(prefix+from, func(row storage.Row) bool {
		if len(row.ID) <= len(prefix) || row.ID[:len(prefix)] != prefix {
			// Node ids sort by model prefix; anything else means we ran
			// past this model's range.
			return row.ID < prefix
		}
		props := make(map[string]any, len(row.Cols))
		for k, v := range row.Cols {
			if k != "_label" {
				props[k] = v
			}
		}
		return fn(toRecord(modelName, row.ID, props))
	})
}

// Len reports the number of nodes with the model's label.
func (m *Mapper) Len(modelName string) int {
	return len(m.db.NodesByLabel(modelName))
}

var _ orm.Mapper = (*Mapper)(nil)
