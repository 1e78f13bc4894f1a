// Package graphdb implements the graph storage engine, the Neo4j
// stand-in: labelled property nodes connected by typed relationships,
// with adjacency-list traversals optimized for the social-recommendation
// queries of the paper's Example 2 (friends-of-friends product
// recommendations).
//
// Synapse uses it subscriber-only, as the paper does.
package graphdb

import (
	"sort"
	"sync"

	"synapse/internal/storage"
)

// node is one property node.
type node struct {
	label string
	props map[string]any
	// out/in: relationship type -> neighbour id set, made by the first edge
	out map[string]map[string]struct{}
	in  map[string]map[string]struct{}
}

// DB is one graph database instance.
type DB struct {
	gate *storage.Gate

	mu     sync.RWMutex
	nodes  map[string]*node
	closed bool
}

// New creates a database with an unconstrained performance profile.
func New() *DB { return NewWithProfile(storage.Profile{}) }

// NewWithProfile creates a database with an explicit performance profile.
func NewWithProfile(p storage.Profile) *DB {
	return &DB{gate: storage.NewGate(p), nodes: make(map[string]*node)}
}

// MergeNode creates or updates a labelled node with the given
// properties (Cypher MERGE + SET).
func (db *DB) MergeNode(label, id string, props map[string]any) error {
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		n, ok := db.nodes[id]
		if !ok {
			n = &node{label: label, props: make(map[string]any, len(props))}
			db.nodes[id] = n
		}
		n.label = label
		for k, v := range props {
			n.props[k] = storage.CloneValue(v)
		}
	})
	return err
}

// Exists reports whether the node is present, without copying it out.
func (db *DB) Exists(id string) bool {
	var found bool
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		_, found = db.nodes[id]
	})
	return found
}

// Node returns a node's label and properties.
func (db *DB) Node(id string) (string, map[string]any, error) {
	var label string
	var props map[string]any
	err := storage.ErrNotFound
	db.gate.Read(func() {
		var ok bool
		if label, props, ok = db.copyOut(id); ok {
			err = nil
		}
	})
	return label, props, err
}

// copyOut is a node's label and a copy of its properties, under the read
// lock, in a map with room for one more (ScanFrom's label).
func (db *DB) copyOut(id string) (string, map[string]any, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n, ok := db.nodes[id]
	if !ok {
		return "", nil, false
	}
	props := make(map[string]any, len(n.props)+1)
	for k, v := range n.props {
		props[k] = storage.CloneValue(v)
	}
	return n.label, props, true
}

// DeleteNode removes a node and all its relationships (DETACH DELETE)
// and returns its properties: the engine no longer holds them, so they
// are handed over, not copied.
func (db *DB) DeleteNode(id string) (map[string]any, error) {
	var props map[string]any
	err := storage.ErrNotFound
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		n, ok := db.nodes[id]
		if !ok {
			return
		}
		db.detachDeleteLocked(id)
		props, err = n.props, nil
	})
	return props, err
}

// detachDeleteLocked removes an existing node and its relationships.
func (db *DB) detachDeleteLocked(id string) {
	n := db.nodes[id]
	for rel, peers := range n.out {
		for peer := range peers {
			if pn := db.nodes[peer]; pn != nil {
				delete(pn.in[rel], id)
			}
		}
	}
	for rel, peers := range n.in {
		for peer := range peers {
			if pn := db.nodes[peer]; pn != nil {
				delete(pn.out[rel], id)
			}
		}
	}
	delete(db.nodes, id)
}

// DeleteNodeRange removes every node with from <= id < to, and their
// relationships, in one statement (MATCH ... WHERE id range DETACH
// DELETE) and reports how many went.
func (db *DB) DeleteNodeRange(from, to string) (int, error) {
	var n int
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		for id := range db.nodes {
			if id >= from && id < to {
				db.detachDeleteLocked(id)
				n++
			}
		}
	})
	return n, err
}

// Relate adds a directed relationship from -> to of the given type. Both
// nodes must exist.
func (db *DB) Relate(from, rel, to string) error {
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		fn, ok := db.nodes[from]
		if !ok {
			err = storage.ErrNotFound
			return
		}
		tn, ok := db.nodes[to]
		if !ok {
			err = storage.ErrNotFound
			return
		}
		addEdge(&fn.out, rel, to)
		addEdge(&tn.in, rel, from)
	})
	return err
}

// RelateBoth adds the relationship in both directions (the "has_many
// :both" association of Fig 5's Neo4j subscriber).
func (db *DB) RelateBoth(a, rel, b string) error {
	if err := db.Relate(a, rel, b); err != nil {
		return err
	}
	return db.Relate(b, rel, a)
}

// Unrelate removes a directed relationship.
func (db *DB) Unrelate(from, rel, to string) error {
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		if fn := db.nodes[from]; fn != nil {
			removeEdge(fn.out, rel, to)
		}
		if tn := db.nodes[to]; tn != nil {
			removeEdge(tn.in, rel, from)
		}
	})
	return err
}

// UnrelateBoth removes the relationship in both directions.
func (db *DB) UnrelateBoth(a, rel, b string) error {
	if err := db.Unrelate(a, rel, b); err != nil {
		return err
	}
	return db.Unrelate(b, rel, a)
}

func addEdge(adj *map[string]map[string]struct{}, rel, id string) {
	if *adj == nil {
		*adj = make(map[string]map[string]struct{})
	}
	set := (*adj)[rel]
	if set == nil {
		set = make(map[string]struct{})
		(*adj)[rel] = set
	}
	set[id] = struct{}{}
}

func removeEdge(adj map[string]map[string]struct{}, rel, id string) {
	if set := adj[rel]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(adj, rel)
		}
	}
}

// Neighbors returns the ids reachable from id over one outgoing rel hop,
// sorted.
func (db *DB) Neighbors(id, rel string) []string {
	var out []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		n, ok := db.nodes[id]
		if !ok {
			return
		}
		for peer := range n.out[rel] {
			out = append(out, peer)
		}
		sort.Strings(out)
	})
	return out
}

// Traverse returns all node ids within maxDepth outgoing rel hops of
// start (excluding start itself), breadth-first, sorted.
func (db *DB) Traverse(start, rel string, maxDepth int) []string {
	var out []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		visited := map[string]struct{}{start: {}}
		frontier := []string{start}
		for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
			var next []string
			for _, id := range frontier {
				n, ok := db.nodes[id]
				if !ok {
					continue
				}
				for peer := range n.out[rel] {
					if _, seen := visited[peer]; seen {
						continue
					}
					visited[peer] = struct{}{}
					next = append(next, peer)
					out = append(out, peer)
				}
			}
			frontier = next
		}
		sort.Strings(out)
	})
	return out
}

// NodesByLabel returns the ids of all nodes with the label, sorted.
func (db *DB) NodesByLabel(label string) []string {
	var out []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		for id, n := range db.nodes {
			if n.label == label {
				out = append(out, id)
			}
		}
		sort.Strings(out)
	})
	return out
}

// Degree reports the number of outgoing rel relationships of a node.
func (db *DB) Degree(id, rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if n, ok := db.nodes[id]; ok {
		return len(n.out[rel])
	}
	return 0
}

// Len reports the total number of nodes.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.nodes)
}

// ScanFrom streams nodes with id >= start in id order as rows (props as
// columns, label under "_label") until fn returns false. A node is copied
// out as fn gets it, and fn runs outside the lock: one deleted in the
// meantime is skipped.
func (db *DB) ScanFrom(start string, fn func(storage.Row) bool) error {
	var ids []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		ids = make([]string, 0, len(db.nodes))
		for id := range db.nodes {
			if id >= start {
				ids = append(ids, id)
			}
		}
	})
	sort.Strings(ids)
	for _, id := range ids {
		label, props, ok := db.copyOut(id)
		if !ok {
			continue
		}
		props["_label"] = label
		if !fn(storage.Row{ID: id, Cols: props}) {
			break
		}
	}
	return nil
}

// Close marks the database closed; subsequent writes fail.
func (db *DB) Close() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
}
