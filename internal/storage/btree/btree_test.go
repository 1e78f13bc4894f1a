package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("Get on empty tree reported a hit")
	}
	if _, ok := tr.Delete("x"); ok {
		t.Fatal("Delete on empty tree reported a hit")
	}
}

func TestSetGet(t *testing.T) {
	tr := New[int]()
	if _, had := tr.Set("a", 1); had {
		t.Fatal("first Set reported existing key")
	}
	if prev, had := tr.Set("a", 2); !had || prev != 1 {
		t.Fatalf("Set replace = (%v, %v), want (1, true)", prev, had)
	}
	v, ok := tr.Get("a")
	if !ok || v != 2 {
		t.Fatalf("Get = (%v, %v), want (2, true)", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
}

func TestManyKeysOrdered(t *testing.T) {
	tr := New[int]()
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Set(fmt.Sprintf("key-%06d", i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len() = %d, want %d", tr.Len(), n)
	}
	if !sort.StringsAreSorted(keys(tr)) {
		t.Fatal("keys not in order")
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(fmt.Sprintf("key-%06d", i))
		if !ok || v != i {
			t.Fatalf("Get(key-%06d) = (%v, %v)", i, v, ok)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New[int]()
	const n = 5000
	rng := rand.New(rand.NewSource(2))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	for _, i := range rng.Perm(n) {
		tr.Set(keys[i], i)
	}
	for _, i := range rng.Perm(n) {
		v, ok := tr.Delete(keys[i])
		if !ok || v != i {
			t.Fatalf("Delete(%s) = (%v, %v), want (%d, true)", keys[i], v, ok, i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len() after deleting all = %d", tr.Len())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 200; i++ {
		tr.Set(fmt.Sprintf("k%03d", i), i)
	}
	if _, ok := tr.Delete("nope"); ok {
		t.Fatal("Delete of missing key reported a hit")
	}
	if tr.Len() != 200 {
		t.Fatalf("Len() = %d, want 200", tr.Len())
	}
}

func TestAscendFrom(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("k%03d", i), i)
	}
	var got []string
	tr.AscendFrom("k050", func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 50 || got[0] != "k050" || got[49] != "k099" {
		t.Fatalf("AscendFrom(k050): len=%d first=%q last=%q", len(got), got[0], got[len(got)-1])
	}
	// Start between keys.
	got = got[:0]
	tr.AscendFrom("k0505", func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 49 || got[0] != "k051" {
		t.Fatalf("AscendFrom(k0505): len=%d first=%q", len(got), got[0])
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("k%03d", i), i)
	}
	count := 0
	tr.Ascend(func(string, int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d, want 10", count)
	}
}

// row is a value the way the relational engine stores one: a struct
// that holds pointers.
type row struct {
	id   string
	cols map[string]any
}

// TestTypedRoundTrip stores struct values and gets back the very values
// stored, through splits, replacement and deletion.
func TestTypedRoundTrip(t *testing.T) {
	tr := New[row]()
	const n = 500
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%04d", i)
		tr.Set(id, row{id: id, cols: map[string]any{"n": i}})
	}
	prev, had := tr.Set("r0007", row{id: "r0007", cols: map[string]any{"n": -7}})
	if !had || prev.cols["n"] != 7 {
		t.Fatalf("replace returned (%+v, %v), want r0007's first value", prev, had)
	}
	for i := 0; i < n; i++ {
		id, want := fmt.Sprintf("r%04d", i), i
		if i == 7 {
			want = -7
		}
		got, ok := tr.Get(id)
		if !ok || got.id != id || got.cols["n"] != want {
			t.Fatalf("Get(%s) = (%+v, %v), want n=%d", id, got, ok, want)
		}
	}
	gone, ok := tr.Delete("r0100")
	if !ok || gone.id != "r0100" || gone.cols["n"] != 100 {
		t.Fatalf("Delete(r0100) = (%+v, %v)", gone, ok)
	}
	if got, ok := tr.Get("r0100"); ok || got.cols != nil {
		t.Fatalf("Get after Delete = (%+v, %v), want the zero row", got, ok)
	}
}

// TestTypedOrderedScan checks AscendFrom hands over the stored values in
// key order, whatever order they were set in.
func TestTypedOrderedScan(t *testing.T) {
	tr := New[row]()
	for _, i := range rand.New(rand.NewSource(3)).Perm(300) {
		id := fmt.Sprintf("r%03d", i)
		tr.Set(id, row{id: id})
	}
	var got []string
	tr.AscendFrom("r150", func(k string, v row) bool {
		if v.id != k {
			t.Fatalf("key %s holds %s's row", k, v.id)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 150 || got[0] != "r150" || got[149] != "r299" || !sort.StringsAreSorted(got) {
		t.Fatalf("AscendFrom(r150): %d keys from %v to %v", len(got), got[0], got[len(got)-1])
	}
}

// TestSetStoresUnboxed checks a value is not boxed on its way in: a Set
// of a new key into a leaf with room, and its Delete, allocate nothing.
func TestSetStoresUnboxed(t *testing.T) {
	tr := New[row]()
	for i := 0; i < 10; i++ {
		tr.Set(fmt.Sprintf("r%02d", i), row{id: "x"})
	}
	v := row{id: "new", cols: map[string]any{}}
	if n := testing.AllocsPerRun(100, func() {
		tr.Set("r05a", v)
		tr.Delete("r05a")
	}); n != 0 {
		t.Errorf("Set of a new key into a non-full leaf = %v allocs, want 0", n)
	}
}

// TestQuickAgainstMap drives random operations against a reference map
// and checks full agreement including ordered iteration.
// TestDroppedSlotsKeepNothing: after splits, merges, borrows and
// deletes, no node slot past a slice's length still holds an item or a
// child, so a deleted key (a journal row's id, which shares its string
// with the payload) is not kept alive by the tree that dropped it.
func TestDroppedSlotsKeepNothing(t *testing.T) {
	tr := New[*int]()
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(5000) {
		v := i
		tr.Set(fmt.Sprintf("k%05d", i), &v)
	}
	for _, i := range rng.Perm(5000)[:4500] {
		tr.Delete(fmt.Sprintf("k%05d", i))
	}
	var walk func(n *node[*int])
	walk = func(n *node[*int]) {
		for _, it := range n.items[len(n.items):cap(n.items)] {
			if it != (item[*int]{}) {
				t.Fatalf("a dropped slot still holds %q", it.key)
			}
		}
		for _, c := range n.children[len(n.children):cap(n.children)] {
			if c != nil {
				t.Fatal("a dropped slot still holds a child")
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
}

func TestQuickAgainstMap(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int]()
		ref := make(map[string]int)
		for op := 0; op < 3000; op++ {
			k := fmt.Sprintf("k%03d", rng.Intn(400))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int()
				_, had := tr.Set(k, v)
				_, refHad := ref[k]
				if had != refHad {
					return false
				}
				ref[k] = v
			case 2:
				_, had := tr.Delete(k)
				_, refHad := ref[k]
				if had != refHad {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		got := keys(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			v, ok := tr.Get(got[i])
			if !ok || v != ref[got[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New[int]()
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%09d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(keys[i], i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("key-%09d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("key-%09d", i%n))
	}
}

// keys returns all of t's keys in order.
func keys(t *Tree[int]) []string {
	var out []string
	t.Ascend(func(k string, _ int) bool {
		out = append(out, k)
		return true
	})
	return out
}
