// Package btree implements an in-memory B-tree with string keys and
// values of one type, stored unboxed. It backs the relational engine's
// ordered primary indexes, providing O(log n) point access and ordered
// iteration for scans and bootstrap snapshots.
//
// The tree is not safe for concurrent use; callers synchronize.
package btree

import (
	"slices"
	"sort"
)

// degree is the minimum number of children of an internal node (except
// the root). Nodes hold between degree-1 and 2*degree-1 keys.
const degree = 32

const (
	minKeys = degree - 1
	maxKeys = 2*degree - 1
)

type item[V any] struct {
	key string
	val V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item >= key and whether it is an
// exact match.
func (n *node[V]) find(key string) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
	if i < len(n.items) && n.items[i].key == key {
		return i, true
	}
	return i, false
}

// Tree is a B-tree mapping string keys to values of type V. A value is
// stored in its node as it is: a Set of a new key into a leaf with room
// allocates nothing.
type Tree[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{root: &node[V]{}} }

// Len reports the number of keys stored.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value for key, if present.
func (t *Tree[V]) Get(key string) (val V, found bool) {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			return val, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the value for key, returning the previous value
// if one existed.
func (t *Tree[V]) Set(key string, val V) (V, bool) {
	if len(t.root.items) == maxKeys {
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.root.splitChild(0)
	}
	prev, had := t.root.insert(key, val)
	if !had {
		t.size++
	}
	return prev, had
}

// splitChild splits the full child at index i, hoisting its median key.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	mid := child.items[minKeys]
	right := &node[V]{
		items: append([]item[V](nil), child.items[minKeys+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node[V](nil), child.children[minKeys+1:]...)
		child.children = shrink(child.children, minKeys+1)
	}
	child.items = shrink(child.items, minKeys)

	n.items = append(n.items, item[V]{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = mid

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node[V]) insert(key string, val V) (prev V, had bool) {
	i, ok := n.find(key)
	if ok {
		prev = n.items[i].val
		n.items[i].val = val
		return prev, true
	}
	if n.leaf() {
		n.items = append(n.items, item[V]{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item[V]{key: key, val: val}
		return prev, false
	}
	if len(n.children[i].items) == maxKeys {
		n.splitChild(i)
		switch {
		case key == n.items[i].key:
			prev = n.items[i].val
			n.items[i].val = val
			return prev, true
		case key > n.items[i].key:
			i++
		}
	}
	return n.children[i].insert(key, val)
}

// Delete removes key, returning its value if it was present.
func (t *Tree[V]) Delete(key string) (V, bool) {
	val, had := t.root.remove(key)
	if had {
		t.size--
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return val, had
}

func (n *node[V]) remove(key string) (val V, had bool) {
	i, ok := n.find(key)
	if n.leaf() {
		if !ok {
			return val, false
		}
		val = n.items[i].val
		n.items = slices.Delete(n.items, i, i+1)
		return val, true
	}
	if ok {
		// Replace with predecessor (max of left subtree), then delete
		// the predecessor from that subtree.
		n.ensureChild(i)
		// ensureChild may have moved things; re-find.
		j, stillHere := n.find(key)
		if !stillHere {
			return n.children[j].remove(key)
		}
		val = n.items[j].val
		pred := n.children[j].max()
		n.items[j] = pred
		_, _ = n.children[j].remove(pred.key)
		return val, true
	}
	n.ensureChild(i)
	j, nowHere := n.find(key)
	if nowHere {
		// A rotation pulled the key up into this node.
		val = n.items[j].val
		pred := n.children[j].max()
		n.items[j] = pred
		_, _ = n.children[j].remove(pred.key)
		return val, true
	}
	return n.children[j].remove(key)
}

// ensureChild guarantees children[i] has more than minKeys items, by
// borrowing from a sibling or merging.
func (n *node[V]) ensureChild(i int) {
	if len(n.children[i].items) > minKeys {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) > minKeys:
		// Borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.items = append([]item[V]{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = shrink(left.items, len(left.items)-1)
		if !left.leaf() {
			child.children = append([]*node[V]{left.children[len(left.children)-1]}, child.children...)
			left.children = shrink(left.children, len(left.children)-1)
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) > minKeys:
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append([]item[V](nil), right.items[1:]...)
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append([]*node[V](nil), right.children[1:]...)
		}
	default:
		// Merge with a sibling.
		if i == len(n.children)-1 {
			i--
		}
		left, right := n.children[i], n.children[i+1]
		left.items = append(left.items, n.items[i])
		left.items = append(left.items, right.items...)
		left.children = append(left.children, right.children...)
		n.items = slices.Delete(n.items, i, i+1)
		n.children = slices.Delete(n.children, i+1, i+2)
	}
}

// shrink cuts s to its first n elements and zeroes the rest: a slot past
// the length that kept its item would keep the key and the value alive
// (a journal row's id shares its string with the payload).
func shrink[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

func (n *node[V]) max() item[V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Ascend visits all keys in order until fn returns false.
func (t *Tree[V]) Ascend(fn func(key string, val V) bool) {
	t.root.ascend("", false, fn)
}

// AscendFrom visits keys >= start in order until fn returns false.
func (t *Tree[V]) AscendFrom(start string, fn func(key string, val V) bool) {
	t.root.ascend(start, true, fn)
}

func (n *node[V]) ascend(start string, bounded bool, fn func(string, V) bool) bool {
	i := 0
	if bounded {
		i, _ = n.find(start)
	}
	for ; i < len(n.items); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(start, bounded, fn) {
				return false
			}
			// Only the leftmost subtree needs the bound.
			bounded = false
		}
		if !bounded || n.items[i].key >= start {
			if !fn(n.items[i].key, n.items[i].val) {
				return false
			}
		}
	}
	if !n.leaf() {
		return n.children[len(n.items)].ascend(start, bounded, fn)
	}
	return true
}
