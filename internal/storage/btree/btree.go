// Package btree implements an in-memory B-tree with string keys and
// arbitrary values. It backs the ordered primary indexes of the
// relational and column-family engines, providing O(log n) point access
// and ordered iteration for scans and bootstrap snapshots.
//
// The tree is not safe for concurrent use; callers synchronize.
package btree

import "sort"

// degree is the minimum number of children of an internal node (except
// the root). Nodes hold between degree-1 and 2*degree-1 keys.
const degree = 32

const (
	minKeys = degree - 1
	maxKeys = 2*degree - 1
)

type item struct {
	key string
	val any
}

type node struct {
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item >= key and whether it is an
// exact match.
func (n *node) find(key string) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
	if i < len(n.items) && n.items[i].key == key {
		return i, true
	}
	return i, false
}

// Tree is a B-tree mapping string keys to values.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{root: &node{}} }

// Len reports the number of keys stored.
func (t *Tree) Len() int { return t.size }

// Get returns the value for key, if present.
func (t *Tree) Get(key string) (any, bool) {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the value for key, returning the previous value
// if one existed.
func (t *Tree) Set(key string, val any) (any, bool) {
	if len(t.root.items) == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	prev, had := t.root.insert(key, val)
	if !had {
		t.size++
	}
	return prev, had
}

// splitChild splits the full child at index i, hoisting its median key.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := child.items[minKeys]
	right := &node{
		items: append([]item(nil), child.items[minKeys+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[minKeys+1:]...)
		child.children = child.children[:minKeys+1]
	}
	child.items = child.items[:minKeys]

	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = mid

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insert(key string, val any) (any, bool) {
	i, ok := n.find(key)
	if ok {
		prev := n.items[i].val
		n.items[i].val = val
		return prev, true
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: key, val: val}
		return nil, false
	}
	if len(n.children[i].items) == maxKeys {
		n.splitChild(i)
		switch {
		case key == n.items[i].key:
			prev := n.items[i].val
			n.items[i].val = val
			return prev, true
		case key > n.items[i].key:
			i++
		}
	}
	return n.children[i].insert(key, val)
}

// Delete removes key, returning its value if it was present.
func (t *Tree) Delete(key string) (any, bool) {
	val, had := t.root.remove(key)
	if had {
		t.size--
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return val, had
}

func (n *node) remove(key string) (any, bool) {
	i, ok := n.find(key)
	if n.leaf() {
		if !ok {
			return nil, false
		}
		val := n.items[i].val
		n.items = append(n.items[:i], n.items[i+1:]...)
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
		val := n.items[j].val
		pred := n.children[j].max()
		n.items[j] = pred
		_, _ = n.children[j].remove(pred.key)
		return val, true
	}
	n.ensureChild(i)
	j, nowHere := n.find(key)
	if nowHere {
		// A rotation pulled the key up into this node.
		val := n.items[j].val
		pred := n.children[j].max()
		n.items[j] = pred
		_, _ = n.children[j].remove(pred.key)
		return val, true
	}
	return n.children[j].remove(key)
}

// ensureChild guarantees children[i] has more than minKeys items, by
// borrowing from a sibling or merging.
func (n *node) ensureChild(i int) {
	if len(n.children[i].items) > minKeys {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) > minKeys:
		// Borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.items = append([]item{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append([]*node{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) > minKeys:
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append([]item(nil), right.items[1:]...)
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append([]*node(nil), right.children[1:]...)
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
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
	}
}

func (n *node) max() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Ascend visits all keys in order until fn returns false.
func (t *Tree) Ascend(fn func(key string, val any) bool) {
	t.root.ascend("", false, fn)
}

// AscendFrom visits keys >= start in order until fn returns false.
func (t *Tree) AscendFrom(start string, fn func(key string, val any) bool) {
	t.root.ascend(start, true, fn)
}

func (n *node) ascend(start string, bounded bool, fn func(string, any) bool) bool {
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
