// Package btree implements an in-memory B-tree of strings, used by the
// relational metadata store for its primary and secondary indexes.
//
// The paper's Gallery leans on MySQL indexes to make model metadata
// searchable at the scale of a million model instances (paper §3.5, §4);
// this tree supplies the same capability to the embedded store: ordered
// range scans in either direction, insert and delete, all O(log n), with
// stable behaviour under millions of keys.
//
// Every key the store indexes is a string (a primary key or an
// order-preserving posting), so the tree holds strings in its nodes and
// compares them with <: no interface and no box per key. It is not safe
// for concurrent mutation; the owning store serializes access.
package btree

import "slices"

// degree controls node fan-out: every non-root node has between degree-1 and
// 2*degree-1 items. 16 keeps nodes within a few cache lines for the small
// index keys the metadata store uses.
const degree = 16

const (
	minItems = degree - 1
	maxItems = 2*degree - 1
)

type node struct {
	items    []string
	children []*node // empty for leaves
}

// Tree is a B-tree. The zero value is an empty tree ready to use.
type Tree struct {
	root   *node
	length int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// FromSorted returns a tree holding keys, which must ascend with no two
// equal. It builds the tree bottom-up without comparing keys: each level
// goes into the fewest nodes that hold it, spread evenly, so every non-root
// node holds minItems..maxItems keys, every leaf is at one depth, and
// Insert and Delete work on the result as on a tree built by inserts. The
// tree takes keys over; the caller must not use the slice again.
func FromSorted(keys []string) *Tree {
	t := &Tree{length: len(keys)}
	if len(keys) == 0 {
		return t
	}
	nodes, seps := pack(keys, nil)
	for len(nodes) > 1 {
		nodes, seps = pack(seps, nodes)
	}
	t.root = nodes[0]
	return t
}

// pack builds one level of FromSorted's tree: items in order and, above the
// leaves, the len(items)+1 nodes of the level below. It returns the nodes,
// and the items that separate consecutive ones, which go up a level. With
// the fewest nodes that fit, count of them, each gets at least
// ⌊(count−1)·maxItems/count⌋ items, no fewer than minItems once count ≥ 2.
// A node's slices are capped sub-slices of its level's, so growing one
// copies it out rather than overwrite a neighbour.
func pack(items []string, below []*node) (nodes []*node, seps []string) {
	count := (len(items) + maxItems + 1) / (maxItems + 1) // ⌈(len+1)/(maxItems+1)⌉
	kept := len(items) - (count - 1)
	nodes, seps = make([]*node, count), make([]string, 0, count-1)
	start, child := 0, 0
	for i := range nodes {
		size := kept / count
		if i < kept%count {
			size++
		}
		end := start + size
		n := &node{items: items[start:end:end]}
		if below != nil {
			n.children = below[child : child+size+1 : child+size+1]
			child += size + 1
		}
		nodes[i] = n
		if i < count-1 {
			seps = append(seps, items[end])
			end++
		}
		start = end
	}
	return nodes, seps
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.length }

// find locates key within n.items: found reports an exact match; otherwise
// i is the child index to descend into.
func (n *node) find(key string) (i int, found bool) {
	return slices.BinarySearch(n.items, key)
}

// Insert adds key to the tree and reports whether it was absent. An equal
// key already present is replaced by this one, so the tree holds the
// caller's latest copy and keeps no older string alive.
func (t *Tree) Insert(key string) bool {
	if t.root == nil {
		t.root = &node{items: []string{key}}
		t.length = 1
		return true
	}
	if len(t.root.items) >= maxItems {
		mid, second := t.root.split(maxItems / 2)
		oldRoot := t.root
		t.root = &node{
			items:    []string{mid},
			children: []*node{oldRoot, second},
		}
	}
	added := t.root.insert(key)
	if added {
		t.length++
	}
	return added
}

// split divides n at item index i, returning the item that moves up and a
// new node holding everything after it.
func (n *node) split(i int) (string, *node) {
	mid := n.items[i]
	next := &node{}
	next.items = append(next.items, n.items[i+1:]...)
	n.items = n.items[:i]
	if len(n.children) > 0 {
		next.children = append(next.children, n.children[i+1:]...)
		n.children = n.children[:i+1]
	}
	return mid, next
}

// maybeSplitChild splits child i if it is full, returning true if it did.
func (n *node) maybeSplitChild(i int) bool {
	if len(n.children[i].items) < maxItems {
		return false
	}
	mid, second := n.children[i].split(maxItems / 2)
	n.items = slices.Insert(n.items, i, mid)
	n.children = slices.Insert(n.children, i+1, second)
	return true
}

func (n *node) insert(key string) bool {
	i, found := n.find(key)
	if found {
		n.items[i] = key
		return false
	}
	if len(n.children) == 0 {
		n.items = slices.Insert(n.items, i, key)
		return true
	}
	if n.maybeSplitChild(i) {
		switch {
		case n.items[i] == key:
			n.items[i] = key
			return false
		case n.items[i] < key:
			i++
		}
	}
	return n.children[i].insert(key)
}

// Delete removes key and reports whether it was present.
func (t *Tree) Delete(key string) bool {
	if t.root == nil {
		return false
	}
	removed := t.root.remove(key)
	if len(t.root.items) == 0 && len(t.root.children) > 0 {
		t.root = t.root.children[0]
	}
	if removed {
		t.length--
	}
	if t.length == 0 {
		t.root = nil
	}
	return removed
}

func (n *node) remove(key string) bool {
	i, found := n.find(key)
	if len(n.children) == 0 {
		if found {
			n.items = slices.Delete(n.items, i, i+1)
		}
		return found
	}
	// Grow the child the key lies under (or, when n holds the key, the
	// child its predecessor lies under) so the removal below cannot
	// underflow; the grow may merge or rotate, so find the key again.
	n.growChild(i)
	i, found = n.find(key)
	if !found {
		return n.children[i].remove(key)
	}
	n.items[i] = n.children[i].removeMax()
	return true
}

// removeMax deletes and returns the maximum item under n. n is assumed to
// have been grown above minItems by the caller chain.
func (n *node) removeMax() string {
	if len(n.children) == 0 {
		out := n.items[len(n.items)-1]
		n.items = n.items[:len(n.items)-1]
		return out
	}
	i := len(n.children) - 1
	if len(n.children[i].items) <= minItems {
		n.growChild(i)
		i = len(n.children) - 1
	}
	return n.children[i].removeMax()
}

// growChild ensures child i has more than minItems items by borrowing from a
// sibling or merging with one.
func (n *node) growChild(i int) {
	if len(n.children[i].items) > minItems {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) > minItems:
		// Rotate right: borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if len(left.children) > 0 {
			child.children = slices.Insert(child.children, 0, left.children[len(left.children)-1])
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) > minItems:
		// Rotate left: borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = slices.Delete(right.items, 0, 1)
		if len(right.children) > 0 {
			child.children = append(child.children, right.children[0])
			right.children = slices.Delete(right.children, 0, 1)
		}
	default:
		// Merge with a sibling.
		if i >= len(n.children)-1 {
			i--
		}
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		child.items = append(child.items, right.items...)
		child.children = append(child.children, right.children...)
		n.items = slices.Delete(n.items, i, i+1)
		n.children = slices.Delete(n.children, i+1, i+2)
	}
}

// Visitor is called for each key during iteration; returning false stops
// the scan.
type Visitor func(string) bool

// AscendRange visits the keys in [ge, lt) in ascending order. An empty lt
// is no upper bound, so AscendRange("", "", v) visits every key.
func (t *Tree) AscendRange(ge, lt string, v Visitor) {
	if t.root != nil {
		t.root.ascendRange(ge, lt, v)
	}
}

// DescendRange visits the keys in [ge, lt) in descending order. An empty lt
// is no upper bound, so DescendRange("", "", v) visits every key.
func (t *Tree) DescendRange(ge, lt string, v Visitor) {
	if t.root != nil {
		t.root.descendRange(ge, lt, v)
	}
}

// ascendRange reports false once v has stopped the scan or a key reached lt.
func (n *node) ascendRange(ge, lt string, v Visitor) bool {
	// The first item >= ge; every child before it holds only smaller keys.
	i, _ := n.find(ge)
	for ; i < len(n.items); i++ {
		if len(n.children) > 0 && !n.children[i].ascendRange(ge, lt, v) {
			return false
		}
		if lt != "" && n.items[i] >= lt || !v(n.items[i]) {
			return false
		}
	}
	return len(n.children) == 0 || n.children[i].ascendRange(ge, lt, v)
}

// descendRange, the mirror of ascendRange, reports false once v has stopped
// the scan or a key fell below ge.
func (n *node) descendRange(ge, lt string, v Visitor) bool {
	// The first item >= lt; every child after it holds only larger keys.
	i := len(n.items)
	if lt != "" {
		i, _ = n.find(lt)
	}
	if len(n.children) > 0 && !n.children[i].descendRange(ge, lt, v) {
		return false
	}
	for i--; i >= 0; i-- {
		if n.items[i] < ge || !v(n.items[i]) {
			return false
		}
		if len(n.children) > 0 && !n.children[i].descendRange(ge, lt, v) {
			return false
		}
	}
	return true
}
