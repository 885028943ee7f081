// Package btree implements an in-memory B-tree used by the relational
// metadata store for its primary and secondary indexes.
//
// The paper's Gallery leans on MySQL indexes to make model metadata
// searchable at the scale of a million model instances (paper §3.5, §4);
// this tree supplies the same capability to the embedded store: ordered
// iteration, point lookup, and range scans, all O(log n), with stable
// behaviour under millions of keys.
//
// The tree stores Items ordered by their Less method. It is not safe for
// concurrent mutation; the owning store serializes access.
package btree

import "sort"

// Item is an element in the tree. Two items are considered equal when
// neither is Less than the other.
type Item interface {
	Less(than Item) bool
}

// degree controls node fan-out: every non-root node has between degree-1 and
// 2*degree-1 items. 16 keeps nodes within a few cache lines for the small
// index keys the metadata store uses.
const degree = 16

const (
	minItems = degree - 1
	maxItems = 2*degree - 1
)

type node struct {
	items    []Item
	children []*node // empty for leaves
}

// Tree is a B-tree. The zero value is an empty tree ready to use.
type Tree struct {
	root   *node
	length int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// FromSorted returns a tree holding items, which must ascend with no two
// equal. It builds the tree bottom-up without comparing items: each level
// goes into the fewest nodes that hold it, spread evenly, so every non-root
// node holds minItems..maxItems items, every leaf is at one depth, and
// ReplaceOrInsert and Delete work on the result as on a tree built by
// inserts. The tree takes items over; the caller must not use the slice
// again.
func FromSorted(items []Item) *Tree {
	t := &Tree{length: len(items)}
	if len(items) == 0 {
		return t
	}
	nodes, seps := pack(items, nil)
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
func pack(items []Item, below []*node) (nodes []*node, seps []Item) {
	count := (len(items) + maxItems + 1) / (maxItems + 1) // ⌈(len+1)/(maxItems+1)⌉
	kept := len(items) - (count - 1)
	nodes, seps = make([]*node, count), make([]Item, 0, count-1)
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

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.length }

func eq(a, b Item) bool { return !a.Less(b) && !b.Less(a) }

// find locates the index of key within n.items: found reports an exact
// match; otherwise i is the child index to descend into.
func (n *node) find(key Item) (i int, found bool) {
	i = sort.Search(len(n.items), func(i int) bool { return key.Less(n.items[i]) })
	if i > 0 && !n.items[i-1].Less(key) {
		return i - 1, true
	}
	return i, false
}

// Get returns the stored item equal to key, or nil.
func (t *Tree) Get(key Item) Item {
	n := t.root
	for n != nil {
		i, found := n.find(key)
		if found {
			return n.items[i]
		}
		if len(n.children) == 0 {
			return nil
		}
		n = n.children[i]
	}
	return nil
}

// Has reports whether an item equal to key is present.
func (t *Tree) Has(key Item) bool { return t.Get(key) != nil }

// ReplaceOrInsert adds item to the tree. If an equal item is already
// present it is replaced and returned; otherwise nil is returned.
func (t *Tree) ReplaceOrInsert(item Item) Item {
	if t.root == nil {
		t.root = &node{items: []Item{item}}
		t.length = 1
		return nil
	}
	if len(t.root.items) >= maxItems {
		mid, second := t.root.split(maxItems / 2)
		oldRoot := t.root
		t.root = &node{
			items:    []Item{mid},
			children: []*node{oldRoot, second},
		}
	}
	out := t.root.insert(item)
	if out == nil {
		t.length++
	}
	return out
}

// split divides n at item index i, returning the item that moves up and a
// new node holding everything after it.
func (n *node) split(i int) (Item, *node) {
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
	n.items = append(n.items, nil)
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = mid
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = second
	return true
}

func (n *node) insert(item Item) Item {
	i, found := n.find(item)
	if found {
		out := n.items[i]
		n.items[i] = item
		return out
	}
	if len(n.children) == 0 {
		n.items = append(n.items, nil)
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item
		return nil
	}
	if n.maybeSplitChild(i) {
		switch {
		case eq(n.items[i], item):
			out := n.items[i]
			n.items[i] = item
			return out
		case n.items[i].Less(item):
			i++
		}
	}
	return n.children[i].insert(item)
}

// Delete removes the item equal to key, returning it, or nil if absent.
func (t *Tree) Delete(key Item) Item {
	if t.root == nil {
		return nil
	}
	out := t.root.remove(key)
	if len(t.root.items) == 0 && len(t.root.children) > 0 {
		t.root = t.root.children[0]
	}
	if out != nil {
		t.length--
	}
	if t.length == 0 {
		t.root = nil
	}
	return out
}

func (n *node) remove(key Item) Item {
	i, found := n.find(key)
	if len(n.children) == 0 {
		if !found {
			return nil
		}
		out := n.items[i]
		n.items = append(n.items[:i], n.items[i+1:]...)
		return out
	}
	if found {
		// Replace with predecessor from child i (grown first so the
		// recursive removal cannot underflow).
		child := n.growChild(i)
		// growChild may have merged/rotated; re-find.
		i, found = n.find(key)
		if !found {
			return n.children[i].remove(key)
		}
		child = n.children[i]
		out := n.items[i]
		n.items[i] = child.removeMax()
		return out
	}
	n.growChild(i)
	i, _ = n.find(key)
	return n.children[i].remove(key)
}

// removeMax deletes and returns the maximum item under n. n is assumed to
// have been grown above minItems by the caller chain.
func (n *node) removeMax() Item {
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
// sibling or merging. Returns the (possibly different) child that now covers
// key's range.
func (n *node) growChild(i int) *node {
	if len(n.children[i].items) > minItems {
		return n.children[i]
	}
	switch {
	case i > 0 && len(n.children[i-1].items) > minItems:
		// Rotate right: borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.items = append(child.items, nil)
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if len(left.children) > 0 {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) > minItems:
		// Rotate left: borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if len(right.children) > 0 {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
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
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
		return child
	}
	return n.children[i]
}

// Visitor is called for each item during iteration; returning false stops
// the scan.
type Visitor func(Item) bool

// Ascend visits every item in ascending order.
func (t *Tree) Ascend(v Visitor) {
	if t.root != nil {
		t.root.ascendRange(nil, nil, v)
	}
}

// AscendGreaterOrEqual visits items >= pivot in ascending order.
func (t *Tree) AscendGreaterOrEqual(pivot Item, v Visitor) {
	if t.root != nil {
		t.root.ascendRange(pivot, nil, v)
	}
}

// AscendRange visits items in [greaterOrEqual, lessThan) ascending. A nil
// bound is unbounded on that side.
func (t *Tree) AscendRange(greaterOrEqual, lessThan Item, v Visitor) {
	if t.root != nil {
		t.root.ascendRange(greaterOrEqual, lessThan, v)
	}
}

func (n *node) ascendRange(ge, lt Item, v Visitor) bool {
	start := 0
	if ge != nil {
		// find returns the equal item's index when present, else the first
		// child whose subtree may contain items >= ge.
		start, _ = n.find(ge)
	}
	for i := start; i < len(n.items); i++ {
		if len(n.children) > 0 {
			if !n.children[i].ascendRange(ge, lt, v) {
				return false
			}
		}
		if ge != nil && n.items[i].Less(ge) {
			continue
		}
		if lt != nil && !n.items[i].Less(lt) {
			return true
		}
		if !v(n.items[i]) {
			return false
		}
	}
	if len(n.children) > 0 {
		return n.children[len(n.children)-1].ascendRange(ge, lt, v)
	}
	return true
}

// Descend visits every item in descending order.
func (t *Tree) Descend(v Visitor) {
	if t.root != nil {
		t.root.descend(v)
	}
}

// DescendLessOrEqual visits items <= pivot in descending order. It is
// the mirror of AscendGreaterOrEqual and gives index scans an O(log n)
// seek to the upper bound of a range before walking downward.
func (t *Tree) DescendLessOrEqual(pivot Item, v Visitor) {
	if t.root != nil {
		t.root.descendLessOrEqual(pivot, v)
	}
}

func (n *node) descendLessOrEqual(le Item, v Visitor) bool {
	i, found := n.find(le)
	if found {
		// items[i] == le: everything under child i is smaller, so the
		// bound no longer constrains the recursion.
		if !v(n.items[i]) {
			return false
		}
		if len(n.children) > 0 && !n.children[i].descend(v) {
			return false
		}
		i--
	} else {
		// items[i] is the first item > le; child i may still straddle it.
		if len(n.children) > 0 && !n.children[i].descendLessOrEqual(le, v) {
			return false
		}
		i--
	}
	for ; i >= 0; i-- {
		if !v(n.items[i]) {
			return false
		}
		if len(n.children) > 0 && !n.children[i].descend(v) {
			return false
		}
	}
	return true
}

func (n *node) descend(v Visitor) bool {
	for i := len(n.items) - 1; i >= 0; i-- {
		if len(n.children) > 0 {
			if !n.children[i+1].descend(v) {
				return false
			}
		}
		if !v(n.items[i]) {
			return false
		}
	}
	if len(n.children) > 0 {
		return n.children[0].descend(v)
	}
	return true
}

// Min returns the smallest item, or nil if the tree is empty.
func (t *Tree) Min() Item {
	n := t.root
	if n == nil {
		return nil
	}
	for len(n.children) > 0 {
		n = n.children[0]
	}
	if len(n.items) == 0 {
		return nil
	}
	return n.items[0]
}

// Max returns the largest item, or nil if the tree is empty.
func (t *Tree) Max() Item {
	n := t.root
	if n == nil {
		return nil
	}
	for len(n.children) > 0 {
		n = n.children[len(n.children)-1]
	}
	if len(n.items) == 0 {
		return nil
	}
	return n.items[len(n.items)-1]
}
