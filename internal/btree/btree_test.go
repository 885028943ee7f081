package btree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// intItem is a test item ordered by integer value.
type intItem int

func (a intItem) Less(b Item) bool { return a < b.(intItem) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Get(intItem(1)) != nil {
		t.Fatal("Get on empty returned item")
	}
	if tr.Delete(intItem(1)) != nil {
		t.Fatal("Delete on empty returned item")
	}
	if tr.Min() != nil || tr.Max() != nil {
		t.Fatal("Min/Max on empty returned item")
	}
	count := 0
	tr.Ascend(func(Item) bool { count++; return true })
	if count != 0 {
		t.Fatal("Ascend on empty visited items")
	}
}

func TestInsertGetDelete(t *testing.T) {
	tr := New()
	const n = 1000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		if out := tr.ReplaceOrInsert(intItem(v)); out != nil {
			t.Fatalf("insert %d returned existing %v", v, out)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := tr.Get(intItem(i)); got == nil || int(got.(intItem)) != i {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
	if tr.Get(intItem(n)) != nil {
		t.Fatal("Get of absent key returned item")
	}
	// Delete in a different random order.
	perm2 := rand.New(rand.NewSource(2)).Perm(n)
	for k, v := range perm2 {
		if out := tr.Delete(intItem(v)); out == nil {
			t.Fatalf("Delete(%d) (step %d) = nil", v, k)
		}
		if tr.Len() != n-k-1 {
			t.Fatalf("Len after %d deletes = %d", k+1, tr.Len())
		}
	}
}

func TestReplaceReturnsOld(t *testing.T) {
	tr := New()
	tr.ReplaceOrInsert(intItem(5))
	out := tr.ReplaceOrInsert(intItem(5))
	if out == nil || out.(intItem) != 5 {
		t.Fatalf("replace returned %v", out)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	vals := rand.New(rand.NewSource(3)).Perm(5000)
	for _, v := range vals {
		tr.ReplaceOrInsert(intItem(v))
	}
	prev := -1
	tr.Ascend(func(it Item) bool {
		v := int(it.(intItem))
		if v != prev+1 {
			t.Fatalf("ascend out of order: %d after %d", v, prev)
		}
		prev = v
		return true
	})
	if prev != 4999 {
		t.Fatalf("ascend visited up to %d", prev)
	}
}

func TestDescendOrder(t *testing.T) {
	tr := New()
	for _, v := range rand.New(rand.NewSource(4)).Perm(2000) {
		tr.ReplaceOrInsert(intItem(v))
	}
	prev := 2000
	tr.Descend(func(it Item) bool {
		v := int(it.(intItem))
		if v != prev-1 {
			t.Fatalf("descend out of order: %d after %d", v, prev)
		}
		prev = v
		return true
	})
	if prev != 0 {
		t.Fatalf("descend stopped at %d", prev)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	count := 0
	tr.Ascend(func(Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d items, want 10", count)
	}
}

func TestAscendGreaterOrEqual(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 { // evens only
		tr.ReplaceOrInsert(intItem(i))
	}
	var got []int
	tr.AscendGreaterOrEqual(intItem(50), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	if len(got) != 25 || got[0] != 50 || got[len(got)-1] != 98 {
		t.Fatalf("AscendGreaterOrEqual(50) = %v", got)
	}
	// Pivot between keys.
	got = got[:0]
	tr.AscendGreaterOrEqual(intItem(51), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	if len(got) != 24 || got[0] != 52 {
		t.Fatalf("AscendGreaterOrEqual(51) starts at %v", got[0])
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	var got []int
	tr.AscendRange(intItem(100), intItem(110), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	want := []int{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	if len(got) != len(want) {
		t.Fatalf("AscendRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange = %v, want %v", got, want)
		}
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	for _, v := range []int{42, 7, 99, 3, 56} {
		tr.ReplaceOrInsert(intItem(v))
	}
	if m := tr.Min(); int(m.(intItem)) != 3 {
		t.Fatalf("Min = %v", m)
	}
	if m := tr.Max(); int(m.(intItem)) != 99 {
		t.Fatalf("Max = %v", m)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.ReplaceOrInsert(intItem(i * 2))
	}
	if out := tr.Delete(intItem(31)); out != nil {
		t.Fatalf("Delete(absent) = %v", out)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len changed after deleting absent key: %d", tr.Len())
	}
}

// TestAgainstReferenceMap cross-checks a long random op sequence against a
// plain map + sort, covering insert/delete/get interleavings that stress
// node splits, rotations, and merges.
func TestAgainstReferenceMap(t *testing.T) {
	tr := New()
	ref := make(map[int]bool)
	rng := rand.New(rand.NewSource(5))
	const ops = 20000
	for i := 0; i < ops; i++ {
		k := rng.Intn(2000)
		switch rng.Intn(3) {
		case 0: // insert
			tr.ReplaceOrInsert(intItem(k))
			ref[k] = true
		case 1: // delete
			got := tr.Delete(intItem(k))
			if ref[k] != (got != nil) {
				t.Fatalf("op %d: Delete(%d) presence mismatch", i, k)
			}
			delete(ref, k)
		case 2: // get
			got := tr.Get(intItem(k))
			if ref[k] != (got != nil) {
				t.Fatalf("op %d: Get(%d) presence mismatch", i, k)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref = %d", i, tr.Len(), len(ref))
		}
	}
	// Final full-order check.
	want := make([]int, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Ints(want)
	var got []int
	tr.Ascend(func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("final Ascend: %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final Ascend[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Property: for arbitrary insert sets, Ascend yields exactly the sorted
// distinct values.
func TestQuickSortedIteration(t *testing.T) {
	f := func(vals []int16) bool {
		tr := New()
		ref := make(map[int]bool)
		for _, v := range vals {
			tr.ReplaceOrInsert(intItem(int(v)))
			ref[int(v)] = true
		}
		if tr.Len() != len(ref) {
			return false
		}
		var got []int
		tr.Ascend(func(it Item) bool {
			got = append(got, int(it.(intItem)))
			return true
		})
		if !sort.IntsAreSorted(got) || len(got) != len(ref) {
			return false
		}
		for _, v := range got {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: deleting a random subset leaves exactly the complement.
func TestQuickDeleteComplement(t *testing.T) {
	f := func(vals []int16, dels []int16) bool {
		tr := New()
		ref := make(map[int]bool)
		for _, v := range vals {
			tr.ReplaceOrInsert(intItem(int(v)))
			ref[int(v)] = true
		}
		for _, d := range dels {
			tr.Delete(intItem(int(d)))
			delete(ref, int(d))
		}
		if tr.Len() != len(ref) {
			return false
		}
		ok := true
		tr.Ascend(func(it Item) bool {
			if !ref[int(it.(intItem))] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	vals := rand.New(rand.NewSource(1)).Perm(b.N)
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReplaceOrInsert(intItem(vals[i]))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 1 << 20
	for _, v := range rand.New(rand.NewSource(1)).Perm(n) {
		tr.ReplaceOrInsert(intItem(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(intItem(i & (n - 1)))
	}
}

func TestDescendLessOrEqual(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 { // evens only
		tr.ReplaceOrInsert(intItem(i))
	}
	var got []int
	tr.DescendLessOrEqual(intItem(50), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	if len(got) != 26 || got[0] != 50 || got[len(got)-1] != 0 {
		t.Fatalf("DescendLessOrEqual(50) = %v", got)
	}
	// Pivot between keys starts below it.
	got = got[:0]
	tr.DescendLessOrEqual(intItem(51), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	if len(got) != 26 || got[0] != 50 {
		t.Fatalf("DescendLessOrEqual(51) starts at %v", got[0])
	}
	// Early stop.
	count := 0
	tr.DescendLessOrEqual(intItem(98), func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Pivot below the minimum visits nothing.
	tr.DescendLessOrEqual(intItem(-1), func(Item) bool {
		t.Fatal("visited item below all keys")
		return false
	})
}

func TestQuickDescendLessOrEqual(t *testing.T) {
	err := quick.Check(func(keys []uint16, pivot uint16) bool {
		tr := New()
		present := map[int]bool{}
		for _, k := range keys {
			tr.ReplaceOrInsert(intItem(int(k)))
			present[int(k)] = true
		}
		var want []int
		for k := range present {
			if k <= int(pivot) {
				want = append(want, k)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(want)))
		var got []int
		tr.DescendLessOrEqual(intItem(int(pivot)), func(it Item) bool {
			got = append(got, int(it.(intItem)))
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// checkShape fails t unless tr is a well-formed B-tree: every non-root node
// holds minItems..maxItems items and every inner node one child more, every
// leaf sits at one depth, the items ascend and Len counts them. It returns
// the depth of the leaves, 0 for an empty tree.
func checkShape(t *testing.T, tr *Tree) int {
	t.Helper()
	if tr.root == nil {
		if tr.Len() != 0 {
			t.Fatalf("no root but Len %d", tr.Len())
		}
		return 0
	}
	leaves, count := -1, 0
	var prev Item
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if len(n.items) > maxItems || len(n.items) == 0 || n != tr.root && len(n.items) < minItems {
			t.Fatalf("node at depth %d holds %d items", depth, len(n.items))
		}
		switch {
		case len(n.children) == 0 && leaves < 0:
			leaves = depth
		case len(n.children) == 0 && leaves != depth:
			t.Fatalf("leaves at depths %d and %d", leaves, depth)
		case len(n.children) > 0 && len(n.children) != len(n.items)+1:
			t.Fatalf("node at depth %d has %d items and %d children", depth, len(n.items), len(n.children))
		}
		for i, it := range n.items {
			if len(n.children) > 0 {
				walk(n.children[i], depth+1)
			}
			if prev != nil && !prev.Less(it) {
				t.Fatalf("%v follows %v", it, prev)
			}
			prev = it
			count++
		}
		if len(n.children) > 0 {
			walk(n.children[len(n.items)], depth+1)
		}
	}
	walk(tr.root, 1)
	if count != tr.Len() {
		t.Fatalf("tree holds %d items, Len says %d", count, tr.Len())
	}
	return leaves
}

func sortedInts(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = intItem(2 * i) // gaps, so inserts can land between
	}
	return items
}

// TestFromSortedShape loads the sizes where the shape changes: empty, one
// item, a full root leaf, the first two-level tree, and either side of the
// first three- and four-level ones.
func TestFromSortedShape(t *testing.T) {
	const fan = maxItems + 1 // children of a full inner node
	for _, c := range []struct{ n, depth int }{
		{0, 0}, {1, 1}, {maxItems, 1}, {maxItems + 1, 2},
		{fan*fan - 1, 2}, {fan * fan, 3}, {fan * fan * fan, 4},
	} {
		tr := FromSorted(sortedInts(c.n))
		if got := checkShape(t, tr); got != c.depth || tr.Len() != c.n {
			t.Errorf("FromSorted of %d items: depth %d, Len %d; want depth %d", c.n, got, tr.Len(), c.depth)
		}
	}
	for n := 0; n <= 3*fan*fan; n += 1 + n/7 {
		checkShape(t, FromSorted(sortedInts(n)))
	}
}

// TestQuickFromSortedAgainstInserts: a bulk-loaded tree, then random inserts
// and deletes, stays well-formed and answers every scan as a tree built by
// inserts and a reference map do.
func TestQuickFromSortedAgainstInserts(t *testing.T) {
	scan := func(tr *Tree, lo, hi int) [][]int {
		var out [][]int
		collect := func(visit func(Visitor)) {
			var got []int
			visit(func(it Item) bool { got = append(got, int(it.(intItem))); return true })
			out = append(out, got)
		}
		collect(tr.Ascend)
		collect(func(v Visitor) { tr.AscendRange(intItem(lo), intItem(hi), v) })
		collect(func(v Visitor) { tr.AscendGreaterOrEqual(intItem(lo), v) })
		collect(tr.Descend)
		collect(func(v Visitor) { tr.DescendLessOrEqual(intItem(hi), v) })
		return out
	}
	f := func(size uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 5000
		ref := map[int]bool{}
		var keys []int
		for _, k := range r.Perm(2*n + 1)[:n] {
			ref[k] = true
			keys = append(keys, k)
		}
		sort.Ints(keys)
		items := make([]Item, len(keys))
		incr := New()
		for i, k := range keys {
			items[i] = intItem(k)
			incr.ReplaceOrInsert(intItem(k))
		}
		bulk := FromSorted(items)
		for op := 0; op < n/2+64; op++ {
			k := r.Intn(2*n + 64)
			if r.Intn(2) == 0 {
				if (bulk.ReplaceOrInsert(intItem(k)) != nil) != ref[k] || (incr.ReplaceOrInsert(intItem(k)) != nil) != ref[k] {
					return false
				}
				ref[k] = true
			} else {
				if (bulk.Delete(intItem(k)) != nil) != ref[k] || (incr.Delete(intItem(k)) != nil) != ref[k] {
					return false
				}
				delete(ref, k)
			}
		}
		checkShape(t, bulk)
		want := make([]int, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Ints(want)
		lo, hi := r.Intn(2*n+64), r.Intn(2*n+64)
		if lo > hi {
			lo, hi = hi, lo
		}
		var wantScans [][]int
		for _, keep := range []func(k int) bool{
			func(int) bool { return true },
			func(k int) bool { return k >= lo && k < hi },
			func(k int) bool { return k >= lo },
		} {
			var s []int
			for _, k := range want {
				if keep(k) {
					s = append(s, k)
				}
			}
			wantScans = append(wantScans, s)
		}
		var desc, descLE []int
		for i := len(want) - 1; i >= 0; i-- {
			desc = append(desc, want[i])
			if want[i] <= hi {
				descLE = append(descLE, want[i])
			}
		}
		wantScans = append(wantScans, desc, descLE)
		got, other := scan(bulk, lo, hi), scan(incr, lo, hi)
		for i := range wantScans {
			if !slices.Equal(got[i], wantScans[i]) || !slices.Equal(other[i], wantScans[i]) {
				return false
			}
		}
		return bulk.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
