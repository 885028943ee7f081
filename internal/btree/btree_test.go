package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// key returns i as a fixed-width decimal string, so that keys order as the
// non-negative ints they encode.
func key(i int) string { return fmt.Sprintf("%06d", i) }

// keys returns the keys of ints, in the same order.
func keys(ints ...int) []string {
	out := make([]string, len(ints))
	for i, v := range ints {
		out[i] = key(v)
	}
	return out
}

// has reports whether tr holds k: [k, k+"\x00") holds k and nothing else.
func has(tr *Tree, k string) bool {
	found := false
	tr.AscendRange(k, k+"\x00", func(got string) bool { found = got == k; return false })
	return found
}

// collect returns the keys scan visits, stopping it after stop keys when
// stop > 0.
func collect(scan func(Visitor), stop int) []string {
	var got []string
	scan(func(k string) bool {
		got = append(got, k)
		return stop <= 0 || len(got) < stop
	})
	return got
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if has(tr, key(1)) {
		t.Fatal("empty tree holds a key")
	}
	if tr.Delete(key(1)) {
		t.Fatal("Delete on empty reported a key")
	}
	tr.AscendRange("", "", func(string) bool { t.Fatal("AscendRange on empty visited a key"); return false })
	tr.DescendRange("", "", func(string) bool { t.Fatal("DescendRange on empty visited a key"); return false })
}

func TestInsertGetDelete(t *testing.T) {
	tr := New()
	const n = 1000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		if !tr.Insert(key(v)) {
			t.Fatalf("Insert(%d) reported it present", v)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !has(tr, key(i)) {
			t.Fatalf("key %d missing", i)
		}
		// Equal strings are interchangeable: a second insert adds nothing.
		if tr.Insert(key(i)) || tr.Len() != n {
			t.Fatalf("re-Insert(%d) added a key: Len %d", i, tr.Len())
		}
	}
	if has(tr, key(n)) {
		t.Fatal("absent key found")
	}
	// Delete in a different random order.
	perm2 := rand.New(rand.NewSource(2)).Perm(n)
	for k, v := range perm2 {
		if !tr.Delete(key(v)) {
			t.Fatalf("Delete(%d) (step %d) reported it absent", v, k)
		}
		if tr.Len() != n-k-1 || has(tr, key(v)) {
			t.Fatalf("after %d deletes: Len %d, deleted key present %v", k+1, tr.Len(), has(tr, key(v)))
		}
	}
}

// TestInsertKeepsLatestCopy: inserting a key equal to one the tree holds
// leaves the caller's copy in the tree, so the older string can be freed.
func TestInsertKeepsLatestCopy(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i))
	}
	for _, i := range []int{0, 15, 16, 500, 999} {
		k := strings.Clone(key(i))
		if tr.Insert(k) {
			t.Fatalf("Insert(%d) reported it absent", i)
		}
		tr.AscendRange(k, "", func(held string) bool {
			if unsafe.StringData(held) != unsafe.StringData(k) {
				t.Errorf("key %d: the tree still holds the older copy", i)
			}
			return false
		})
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	vals := rand.New(rand.NewSource(3)).Perm(5000)
	for _, v := range vals {
		tr.Insert(key(v))
	}
	prev := -1
	tr.AscendRange("", "", func(k string) bool {
		if k != key(prev+1) {
			t.Fatalf("ascend out of order: %s after %d", k, prev)
		}
		prev++
		return true
	})
	if prev != 4999 {
		t.Fatalf("ascend visited up to %d", prev)
	}
}

func TestDescendOrder(t *testing.T) {
	tr := New()
	for _, v := range rand.New(rand.NewSource(4)).Perm(2000) {
		tr.Insert(key(v))
	}
	prev := 2000
	tr.DescendRange("", "", func(k string) bool {
		if k != key(prev-1) {
			t.Fatalf("descend out of order: %s after %d", k, prev)
		}
		prev--
		return true
	})
	if prev != 0 {
		t.Fatalf("descend stopped at %d", prev)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i))
	}
	if got := collect(func(v Visitor) { tr.AscendRange("", "", v) }, 10); len(got) != 10 {
		t.Fatalf("visited %d keys, want 10", len(got))
	}
}

// TestAscendGreaterOrEqual: an empty lt leaves the scan unbounded above.
func TestAscendGreaterOrEqual(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 { // evens only
		tr.Insert(key(i))
	}
	got := collect(func(v Visitor) { tr.AscendRange(key(50), "", v) }, 0)
	if len(got) != 25 || got[0] != key(50) || got[len(got)-1] != key(98) {
		t.Fatalf("AscendRange(50, \"\") = %v", got)
	}
	// Pivot between keys.
	got = collect(func(v Visitor) { tr.AscendRange(key(51), "", v) }, 0)
	if len(got) != 24 || got[0] != key(52) {
		t.Fatalf("AscendRange(51, \"\") = %v", got)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i))
	}
	got := collect(func(v Visitor) { tr.AscendRange(key(100), key(110), v) }, 0)
	if want := keys(100, 101, 102, 103, 104, 105, 106, 107, 108, 109); !slices.Equal(got, want) {
		t.Fatalf("AscendRange = %v, want %v", got, want)
	}
}

// TestDescendRange bounds a descending scan on both sides, on neither, on
// a key and between keys, and stops it early.
func TestDescendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 { // evens only
		tr.Insert(key(i))
	}
	for _, c := range []struct {
		ge, lt string
		stop   int
		want   []string
	}{
		{"", "", 0, nil}, // every key, filled in below
		{key(40), key(50), 0, keys(48, 46, 44, 42, 40)},     // bounds on keys
		{key(39), key(51), 0, keys(50, 48, 46, 44, 42, 40)}, // bounds between keys
		{"", key(6), 0, keys(4, 2, 0)},                      // no lower bound
		{key(90), "", 0, keys(98, 96, 94, 92, 90)},          // an empty lt: no upper bound
		{key(91), "", 0, keys(98, 96, 94, 92)},              // ge between keys
		{"", key(98), 5, keys(96, 94, 92, 90, 88)},          // early stop
		{key(98) + "\x00", "", 0, nil},                      // ge above every key
		{"", key(0), 0, nil},                                // lt at the smallest key
		{key(50), key(50), 0, nil},                          // empty range
	} {
		want := c.want
		if c.ge == "" && c.lt == "" {
			for i := 98; i >= 0; i -= 2 {
				want = append(want, key(i))
			}
		}
		if got := collect(func(v Visitor) { tr.DescendRange(c.ge, c.lt, v) }, c.stop); !slices.Equal(got, want) {
			t.Errorf("DescendRange(%q, %q) stopping at %d = %v, want %v", c.ge, c.lt, c.stop, got, want)
		}
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i * 2))
	}
	if tr.Delete(key(31)) {
		t.Fatal("Delete(absent) reported it present")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len changed after deleting absent key: %d", tr.Len())
	}
}

// TestAgainstReferenceMap cross-checks a long random op sequence against a
// plain map + sort, covering insert/delete/lookup interleavings that stress
// node splits, rotations, and merges.
func TestAgainstReferenceMap(t *testing.T) {
	tr := New()
	ref := make(map[string]bool)
	rng := rand.New(rand.NewSource(5))
	const ops = 20000
	for i := 0; i < ops; i++ {
		k := key(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0:
			if tr.Insert(k) == ref[k] {
				t.Fatalf("op %d: Insert(%s) presence mismatch", i, k)
			}
			ref[k] = true
		case 1:
			if tr.Delete(k) != ref[k] {
				t.Fatalf("op %d: Delete(%s) presence mismatch", i, k)
			}
			delete(ref, k)
		case 2:
			if has(tr, k) != ref[k] {
				t.Fatalf("op %d: lookup of %s presence mismatch", i, k)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref = %d", i, tr.Len(), len(ref))
		}
	}
	want := make([]string, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	if got := collect(func(v Visitor) { tr.AscendRange("", "", v) }, 0); !slices.Equal(got, want) {
		t.Fatalf("final scan: %d keys, want %d", len(got), len(want))
	}
}

// Property: for arbitrary insert sets, a full scan yields exactly the
// sorted distinct keys.
func TestQuickSortedIteration(t *testing.T) {
	f := func(vals []string) bool {
		tr := New()
		ref := make(map[string]bool)
		for _, v := range vals {
			tr.Insert(v)
			ref[v] = true
		}
		if tr.Len() != len(ref) {
			return false
		}
		got := collect(func(v Visitor) { tr.AscendRange("", "", v) }, 0)
		if !sort.StringsAreSorted(got) || len(got) != len(ref) {
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
	f := func(vals []uint8, dels []uint8) bool {
		tr := New()
		ref := make(map[string]bool)
		for _, v := range vals {
			tr.Insert(key(int(v)))
			ref[key(int(v))] = true
		}
		for _, d := range dels {
			tr.Delete(key(int(d)))
			delete(ref, key(int(d)))
		}
		if tr.Len() != len(ref) {
			return false
		}
		ok := true
		tr.AscendRange("", "", func(k string) bool {
			ok = ref[k]
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	vals := rand.New(rand.NewSource(1)).Perm(b.N)
	ks := make([]string, b.N)
	for i, v := range vals {
		ks[i] = key(v)
	}
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(ks[i])
	}
}

// TestQuickDescendRange: both range methods, over random keys and bounds,
// visit what a sorted reference slice holds in the range; a zero bound
// stands for "", unbounded.
func TestQuickDescendRange(t *testing.T) {
	bound := func(b uint16) string {
		if b == 0 {
			return ""
		}
		return key(int(b))
	}
	err := quick.Check(func(ints []uint16, lo, hi uint16) bool {
		tr := New()
		var ref []string
		for _, i := range ints {
			if tr.Insert(key(int(i))) {
				ref = append(ref, key(int(i)))
			}
		}
		sort.Strings(ref)
		var want []string
		for _, k := range ref {
			if k >= bound(lo) && (hi == 0 || k < bound(hi)) {
				want = append(want, k)
			}
		}
		asc := collect(func(v Visitor) { tr.AscendRange(bound(lo), bound(hi), v) }, 0)
		desc := collect(func(v Visitor) { tr.DescendRange(bound(lo), bound(hi), v) }, 0)
		slices.Reverse(desc)
		return slices.Equal(asc, want) && slices.Equal(desc, want)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// checkShape fails t unless tr is a well-formed B-tree: every non-root node
// holds minItems..maxItems keys and every inner node one child more, every
// leaf sits at one depth, the keys ascend and Len counts them. It returns
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
	var prev *string
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if len(n.items) > maxItems || len(n.items) == 0 || n != tr.root && len(n.items) < minItems {
			t.Fatalf("node at depth %d holds %d keys", depth, len(n.items))
		}
		switch {
		case len(n.children) == 0 && leaves < 0:
			leaves = depth
		case len(n.children) == 0 && leaves != depth:
			t.Fatalf("leaves at depths %d and %d", leaves, depth)
		case len(n.children) > 0 && len(n.children) != len(n.items)+1:
			t.Fatalf("node at depth %d has %d keys and %d children", depth, len(n.items), len(n.children))
		}
		for i := range n.items {
			if len(n.children) > 0 {
				walk(n.children[i], depth+1)
			}
			if prev != nil && *prev >= n.items[i] {
				t.Fatalf("%q follows %q", n.items[i], *prev)
			}
			prev = &n.items[i]
			count++
		}
		if len(n.children) > 0 {
			walk(n.children[len(n.items)], depth+1)
		}
	}
	walk(tr.root, 1)
	if count != tr.Len() {
		t.Fatalf("tree holds %d keys, Len says %d", count, tr.Len())
	}
	return leaves
}

func sortedKeys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = key(2 * i) // gaps, so inserts can land between
	}
	return ks
}

// TestFromSortedShape loads the sizes where the shape changes: empty, one
// key, a full root leaf, the first two-level tree, and either side of the
// first three- and four-level ones.
func TestFromSortedShape(t *testing.T) {
	const fan = maxItems + 1 // children of a full inner node
	for _, c := range []struct{ n, depth int }{
		{0, 0}, {1, 1}, {maxItems, 1}, {maxItems + 1, 2},
		{fan*fan - 1, 2}, {fan * fan, 3}, {fan * fan * fan, 4},
	} {
		tr := FromSorted(sortedKeys(c.n))
		if got := checkShape(t, tr); got != c.depth || tr.Len() != c.n {
			t.Errorf("FromSorted of %d keys: depth %d, Len %d; want depth %d", c.n, got, tr.Len(), c.depth)
		}
	}
	for n := 0; n <= 3*fan*fan; n += 1 + n/7 {
		checkShape(t, FromSorted(sortedKeys(n)))
	}
}

// TestQuickFromSortedAgainstInserts: a bulk-loaded tree, then random inserts
// and deletes, stays well-formed and answers every scan, whole or stopped
// early, as a tree built by inserts and a sorted reference slice do.
func TestQuickFromSortedAgainstInserts(t *testing.T) {
	f := func(size uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 5000
		ref := map[string]bool{}
		for _, k := range r.Perm(2*n + 1)[:n] {
			ref[key(k)] = true
		}
		bulkKeys := make([]string, 0, n)
		for k := range ref {
			bulkKeys = append(bulkKeys, k)
		}
		sort.Strings(bulkKeys)
		incr := New()
		for _, k := range bulkKeys {
			incr.Insert(k)
		}
		bulk := FromSorted(bulkKeys)
		for op := 0; op < n/2+64; op++ {
			k := key(r.Intn(2*n + 64))
			if r.Intn(2) == 0 {
				if bulk.Insert(k) == ref[k] || incr.Insert(k) == ref[k] {
					return false
				}
				ref[k] = true
			} else {
				if bulk.Delete(k) != ref[k] || incr.Delete(k) != ref[k] {
					return false
				}
				delete(ref, k)
			}
		}
		checkShape(t, bulk)
		checkShape(t, incr)
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		lo, hi := key(r.Intn(2*n+64)), key(r.Intn(2*n+64))
		if lo > hi {
			lo, hi = hi, lo
		}
		stop := r.Intn(n + 1)
		for _, b := range []struct{ ge, lt string }{{"", ""}, {lo, hi}, {lo, ""}, {"", hi}} {
			var in []string
			for _, k := range want {
				if k >= b.ge && (b.lt == "" || k < b.lt) {
					in = append(in, k)
				}
			}
			rev := slices.Clone(in)
			slices.Reverse(rev)
			for _, tr := range []*Tree{bulk, incr} {
				for _, s := range []int{0, stop} {
					asc := collect(func(v Visitor) { tr.AscendRange(b.ge, b.lt, v) }, s)
					desc := collect(func(v Visitor) { tr.DescendRange(b.ge, b.lt, v) }, s)
					if !slices.Equal(asc, prefix(in, s)) || !slices.Equal(desc, prefix(rev, s)) {
						return false
					}
				}
			}
		}
		return bulk.Len() == len(ref) && incr.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prefix returns what a scan of s stopped after stop keys visits.
func prefix(s []string, stop int) []string {
	if stop > 0 && stop < len(s) {
		return s[:stop]
	}
	return s
}
