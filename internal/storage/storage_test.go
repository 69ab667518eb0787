package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/datum"
)

func intRow(vals ...int64) datum.Row {
	r := make(datum.Row, len(vals))
	for i, v := range vals {
		r[i] = datum.NewInt(v)
	}
	return r
}

func TestHeapInsertFetchScan(t *testing.T) {
	stats := &IOStats{}
	rel, err := NewHeapManager(4).Create("T", 2, stats)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := int64(0); i < 10; i++ {
		rid, err := rel.Insert(intRow(i, i*10))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if rel.RowCount() != 10 {
		t.Fatalf("RowCount = %d", rel.RowCount())
	}
	if rel.PageCount() != 3 { // 4 rows/page → ceil(10/4)
		t.Fatalf("PageCount = %d", rel.PageCount())
	}
	r, ok := rel.Fetch(rids[7])
	if !ok || r[0].Int() != 7 {
		t.Fatalf("Fetch: %v %v", r, ok)
	}
	// Scan sees all rows once.
	seen := map[int64]bool{}
	it := rel.Scan()
	defer it.Close()
	for {
		row, _, ok := it.Next()
		if !ok {
			break
		}
		seen[row[0].Int()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("scan saw %d rows", len(seen))
	}
}

func TestHeapDeleteUpdate(t *testing.T) {
	rel, _ := NewHeapManager(4).Create("T", 1, &IOStats{})
	rid1, _ := rel.Insert(intRow(1))
	rid2, _ := rel.Insert(intRow(2))
	if err := rel.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	if err := rel.Delete(rid1); err == nil {
		t.Error("double delete must fail")
	}
	if _, ok := rel.Fetch(rid1); ok {
		t.Error("deleted row visible")
	}
	if rel.RowCount() != 1 {
		t.Error("count after delete")
	}
	if err := rel.Update(rid2, intRow(20)); err != nil {
		t.Fatal(err)
	}
	r, _ := rel.Fetch(rid2)
	if r[0].Int() != 20 {
		t.Error("update not visible")
	}
	if err := rel.Update(rid1, intRow(0)); err == nil {
		t.Error("update of deleted row must fail")
	}
	if err := rel.Update(rid2, intRow(1, 2)); err == nil {
		t.Error("width mismatch must fail")
	}
	if _, err := rel.Insert(intRow(1, 2)); err == nil {
		t.Error("insert width mismatch must fail")
	}
	if err := rel.Delete(RID{Page: 99, Slot: 0}); err == nil {
		t.Error("bad rid must fail")
	}
}

func TestHeapScanSkipsDeleted(t *testing.T) {
	rel, _ := NewHeapManager(4).Create("T", 1, &IOStats{})
	var rids []RID
	for i := int64(0); i < 8; i++ {
		rid, _ := rel.Insert(intRow(i))
		rids = append(rids, rid)
	}
	for i := 0; i < 8; i += 2 {
		rel.Delete(rids[i])
	}
	n := 0
	it := rel.Scan()
	for {
		row, _, ok := it.Next()
		if !ok {
			break
		}
		if row[0].Int()%2 == 0 {
			t.Error("deleted row surfaced")
		}
		n++
	}
	if n != 4 {
		t.Errorf("scan saw %d rows, want 4", n)
	}
}

func TestHeapIOAccounting(t *testing.T) {
	stats := &IOStats{}
	rel, _ := NewHeapManager(10).Create("T", 1, stats)
	for i := int64(0); i < 100; i++ {
		rel.Insert(intRow(i))
	}
	stats.Reset()
	it := rel.Scan()
	for {
		if _, _, ok := it.Next(); !ok {
			break
		}
	}
	reads, _, _ := stats.Snapshot()
	if reads != 10 { // 100 rows / 10 per page
		t.Errorf("scan page reads = %d, want 10", reads)
	}
}

func TestIOStatsNilSafe(t *testing.T) {
	var s *IOStats
	s.ReadPage()
	s.WritePage()
	s.ReadIndex() // must not panic
}

func TestFixedStorageManager(t *testing.T) {
	// The paper's worked example: a storage manager for fixed-length
	// records only, but extremely efficient.
	stats := &IOStats{}
	rel, err := NewFixedManager().Create("F", 2, stats)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := rel.Insert(intRow(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(datum.Row{datum.NewString("x"), datum.NewInt(1)}); err == nil {
		t.Error("FIXED must reject variable-length values")
	}
	if err := rel.Update(rid, datum.Row{datum.NewString("x"), datum.NewInt(1)}); err == nil {
		t.Error("FIXED update must reject variable-length values")
	}
	r, ok := rel.Fetch(rid)
	if !ok || r[1].Int() != 2 {
		t.Error("fetch")
	}
	if err := rel.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if rel.RowCount() != 0 {
		t.Error("count")
	}
	// Density: 1000 fixed rows use fewer simulated pages than heap.
	heap, _ := NewHeapManager(64).Create("H", 1, stats)
	fixed, _ := NewFixedManager().Create("F2", 1, stats)
	for i := int64(0); i < 1000; i++ {
		heap.Insert(intRow(i))
		fixed.Insert(intRow(i))
	}
	if fixed.PageCount() >= heap.PageCount() {
		t.Errorf("fixed pages %d !< heap pages %d", fixed.PageCount(), heap.PageCount())
	}
}

func TestRegistryDefaults(t *testing.T) {
	r := NewRegistry()
	if m, err := r.StorageManager(""); err != nil || m.Name() != "HEAP" {
		t.Error("default storage manager")
	}
	if m, err := r.AccessMethod(""); err != nil || m.Name() != "BTREE" {
		t.Error("default access method")
	}
	if _, err := r.StorageManager("NOPE"); err == nil {
		t.Error("unknown manager must fail")
	}
	if _, err := r.AccessMethod("NOPE"); err == nil {
		t.Error("unknown method must fail")
	}
	// DBC registration.
	r.RegisterStorageManager(NewFixedManager())
	if m, err := r.StorageManager("FIXED"); err != nil || m.Name() != "FIXED" {
		t.Error("registered manager not found")
	}
	r.RegisterAccessMethod(RTreeMethod{})
	if m, err := r.AccessMethod("RTREE"); err != nil || !m.Caps().Spatial {
		t.Error("registered rtree not found")
	}
	names := r.StorageManagerNames()
	if len(names) != 2 || names[0] != "FIXED" || names[1] != "HEAP" {
		t.Errorf("manager names = %v", names)
	}
	if len(r.AccessMethodNames()) != 2 {
		t.Errorf("method names = %v", r.AccessMethodNames())
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	// HEAP and BTREE are seeded; re-registering either must fail with a
	// typed *DuplicateError, not silently overwrite — tables record the
	// manager name in the catalog, so a swap would reroute them.
	var dup *DuplicateError
	if err := r.RegisterStorageManager(NewHeapManager(64)); !errors.As(err, &dup) {
		t.Fatalf("duplicate manager: got %v, want *DuplicateError", err)
	} else if dup.Kind != "storage manager" || dup.Name != "HEAP" {
		t.Fatalf("duplicate manager error = %+v", dup)
	}
	if err := r.RegisterAccessMethod(BTreeMethod{}); !errors.As(err, &dup) {
		t.Fatalf("duplicate method: got %v, want *DuplicateError", err)
	} else if dup.Kind != "access method" || dup.Name != "BTREE" {
		t.Fatalf("duplicate method error = %+v", dup)
	}
	// A fresh name registers fine, and only its first registration wins.
	if err := r.RegisterAccessMethod(RTreeMethod{}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterAccessMethod(RTreeMethod{}); !errors.As(err, &dup) {
		t.Fatalf("second RTREE registration: got %v", err)
	}
	// Replace* is the sanctioned in-place swap (fault decoration).
	before, _ := r.StorageManager("HEAP")
	r.ReplaceStorageManager(NewHeapManager(64))
	after, err := r.StorageManager("HEAP")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("ReplaceStorageManager did not swap the manager")
	}
}

func TestRegistryDefaultStorageManager(t *testing.T) {
	r := NewRegistry()
	if got := r.DefaultStorageManager(); got != "HEAP" {
		t.Fatalf("initial default = %q, want HEAP", got)
	}
	if err := r.SetDefaultStorageManager("NOPE"); err == nil {
		t.Fatal("setting an unregistered default must fail")
	}
	if err := r.RegisterStorageManager(NewFixedManager()); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDefaultStorageManager("FIXED"); err != nil {
		t.Fatal(err)
	}
	if m, err := r.StorageManager(""); err != nil || m.Name() != "FIXED" {
		t.Fatalf("empty lookup after SetDefault: %v, %v", m, err)
	}
}

// ---------------------------------------------------------------------
// B-tree

func newBTree(t *testing.T, unique bool) Attachment {
	t.Helper()
	at, err := BTreeMethod{}.New([]datum.TypeID{datum.TInt}, unique, &IOStats{})
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func collectKeys(t *testing.T, it EntryIterator) []int64 {
	t.Helper()
	var out []int64
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e.Key[0].Int())
	}
	it.Close()
	return out
}

func TestBTreeOrderedScan(t *testing.T) {
	bt := newBTree(t, false)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(1000)
	for _, v := range perm {
		if err := bt.Insert(intRow(int64(v)), RID{Page: int32(v), Slot: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
	}
	keys := collectKeys(t, bt.Search(Unbounded, Unbounded))
	if len(keys) != 1000 {
		t.Fatalf("scan returned %d keys", len(keys))
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("keys[%d] = %d, not sorted", i, k)
		}
	}
}

func TestBTreeRangeSearch(t *testing.T) {
	bt := newBTree(t, false)
	for i := int64(0); i < 100; i++ {
		bt.Insert(intRow(i), RID{Page: int32(i)})
	}
	cases := []struct {
		lo, hi     Bound
		first, num int64
	}{
		{Include(intRow(10)), Include(intRow(20)), 10, 11},
		{Exclude(intRow(10)), Include(intRow(20)), 11, 10},
		{Include(intRow(10)), Exclude(intRow(20)), 10, 10},
		{Unbounded, Include(intRow(5)), 0, 6},
		{Include(intRow(95)), Unbounded, 95, 5},
		{Include(intRow(200)), Unbounded, -1, 0},
		{Include(intRow(50)), Include(intRow(50)), 50, 1},
		{Include(intRow(60)), Include(intRow(40)), -1, 0}, // empty range
	}
	for i, tc := range cases {
		keys := collectKeys(t, bt.Search(tc.lo, tc.hi))
		if int64(len(keys)) != tc.num {
			t.Errorf("case %d: %d keys, want %d", i, len(keys), tc.num)
			continue
		}
		if tc.num > 0 && keys[0] != tc.first {
			t.Errorf("case %d: first = %d, want %d", i, keys[0], tc.first)
		}
	}
}

func TestBTreeDuplicates(t *testing.T) {
	bt := newBTree(t, false)
	// 300 duplicates of each of 5 keys forces duplicates to span leaves.
	for i := 0; i < 300; i++ {
		for k := int64(0); k < 5; k++ {
			bt.Insert(intRow(k), RID{Page: int32(k), Slot: int32(i)})
		}
	}
	keys := collectKeys(t, bt.Search(Include(intRow(2)), Include(intRow(2))))
	if len(keys) != 300 {
		t.Fatalf("equality over duplicates returned %d, want 300", len(keys))
	}
	for _, k := range keys {
		if k != 2 {
			t.Fatal("wrong key in equality search")
		}
	}
	// Delete one specific duplicate.
	if err := bt.Delete(intRow(2), RID{Page: 2, Slot: 150}); err != nil {
		t.Fatal(err)
	}
	if got := len(collectKeys(t, bt.Search(Include(intRow(2)), Include(intRow(2))))); got != 299 {
		t.Fatalf("after delete: %d, want 299", got)
	}
	if err := bt.Delete(intRow(2), RID{Page: 2, Slot: 150}); err == nil {
		t.Error("deleting missing entry must fail")
	}
}

func TestBTreeUnique(t *testing.T) {
	bt := newBTree(t, true)
	if err := bt.Insert(intRow(1), RID{Page: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert(intRow(1), RID{Page: 2}); err == nil {
		t.Error("unique violation must fail")
	}
	if err := bt.Insert(intRow(2), RID{Page: 2}); err != nil {
		t.Error("distinct key must succeed")
	}
}

func TestBTreeCompositeKeyPrefix(t *testing.T) {
	at, err := BTreeMethod{}.New([]datum.TypeID{datum.TInt, datum.TString}, false, &IOStats{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		for _, s := range []string{"a", "b", "c"} {
			at.Insert(datum.Row{datum.NewInt(i), datum.NewString(s)}, RID{Page: int32(i)})
		}
	}
	// Prefix search on the first column only.
	keys := collectKeys(t, at.Search(Include(intRow(5)), Include(intRow(5))))
	if len(keys) != 3 {
		t.Fatalf("prefix search returned %d, want 3", len(keys))
	}
	// Full composite key.
	it := at.Search(
		Include(datum.Row{datum.NewInt(5), datum.NewString("b")}),
		Include(datum.Row{datum.NewInt(5), datum.NewString("b")}))
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("composite equality returned %d, want 1", n)
	}
}

func TestBTreeEmptyAndErrors(t *testing.T) {
	bt := newBTree(t, false)
	if keys := collectKeys(t, bt.Search(Unbounded, Unbounded)); len(keys) != 0 {
		t.Error("empty tree scan")
	}
	if err := bt.Delete(intRow(1), RID{}); err == nil {
		t.Error("delete from empty tree must fail")
	}
	if _, err := (BTreeMethod{}).New(nil, false, nil); err == nil {
		t.Error("zero key columns must fail")
	}
}

func TestBTreePropertySortedAndComplete(t *testing.T) {
	f := func(vals []int16) bool {
		bt, _ := BTreeMethod{}.New([]datum.TypeID{datum.TInt}, false, &IOStats{})
		want := map[int64]int{}
		for i, v := range vals {
			bt.Insert(intRow(int64(v)), RID{Page: int32(i)})
			want[int64(v)]++
		}
		it := bt.Search(Unbounded, Unbounded)
		var prev int64
		first := true
		got := map[int64]int{}
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			k := e.Key[0].Int()
			if !first && k < prev {
				return false
			}
			prev, first = k, false
			got[k]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------
// R-tree

func pt(x, y float64) datum.Row {
	return datum.Row{datum.NewFloat(x), datum.NewFloat(y)}
}

func newRTree(t *testing.T) Attachment {
	t.Helper()
	at, err := RTreeMethod{}.New([]datum.TypeID{datum.TFloat, datum.TFloat}, false, &IOStats{})
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestRTreeWindowQuery(t *testing.T) {
	rt := newRTree(t)
	id := int32(0)
	for x := 0.0; x < 20; x++ {
		for y := 0.0; y < 20; y++ {
			if err := rt.Insert(pt(x, y), RID{Page: id}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if rt.Len() != 400 {
		t.Fatalf("Len = %d", rt.Len())
	}
	it := rt.Search(Include(pt(5, 5)), Include(pt(7, 7)))
	n := 0
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		x, y := e.Key[0].Float(), e.Key[1].Float()
		if x < 5 || x > 7 || y < 5 || y > 7 {
			t.Fatalf("point (%v,%v) outside window", x, y)
		}
		n++
	}
	if n != 9 {
		t.Fatalf("window returned %d points, want 9", n)
	}
}

func TestRTreeHalfOpenWindow(t *testing.T) {
	rt := newRTree(t)
	for i := 0; i < 50; i++ {
		rt.Insert(pt(float64(i), float64(i)), RID{Page: int32(i)})
	}
	// Only x-min bounded: lo=(40, -inf).
	it := rt.Search(Bound{Key: datum.Row{datum.NewFloat(40), datum.Null}, Inclusive: true}, Unbounded)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("half-open window returned %d, want 10", n)
	}
}

func TestRTreeDelete(t *testing.T) {
	rt := newRTree(t)
	for i := 0; i < 100; i++ {
		rt.Insert(pt(float64(i%10), float64(i/10)), RID{Page: int32(i)})
	}
	if err := rt.Delete(pt(3, 4), RID{Page: 43}); err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 99 {
		t.Error("len after delete")
	}
	if err := rt.Delete(pt(3, 4), RID{Page: 43}); err == nil {
		t.Error("double delete must fail")
	}
	it := rt.Search(Include(pt(3, 4)), Include(pt(3, 4)))
	if _, ok := it.Next(); ok {
		t.Error("deleted point still found")
	}
}

func TestRTreeValidation(t *testing.T) {
	if _, err := (RTreeMethod{}).New([]datum.TypeID{datum.TString}, false, nil); err == nil {
		t.Error("non-numeric keys must fail")
	}
	if _, err := (RTreeMethod{}).New([]datum.TypeID{datum.TFloat}, true, nil); err == nil {
		t.Error("unique rtree must fail")
	}
	if _, err := (RTreeMethod{}).New(nil, false, nil); err == nil {
		t.Error("empty keys must fail")
	}
	rt := newRTree(t)
	if err := rt.Insert(datum.Row{datum.NewFloat(1)}, RID{}); err == nil {
		t.Error("wrong key width must fail")
	}
	if err := rt.Insert(datum.Row{datum.Null, datum.NewFloat(1)}, RID{}); err == nil {
		t.Error("NULL key must fail")
	}
	if err := rt.Delete(pt(1, 1), RID{}); err == nil {
		t.Error("delete from empty rtree must fail")
	}
}

func TestRTreePropertyWindowComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := newRTree(t)
	type p struct{ x, y float64 }
	var pts []p
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		pts = append(pts, p{x, y})
		rt.Insert(pt(x, y), RID{Page: int32(i)})
	}
	for trial := 0; trial < 20; trial++ {
		x1, y1 := rng.Float64()*80, rng.Float64()*80
		x2, y2 := x1+rng.Float64()*20, y1+rng.Float64()*20
		want := 0
		for _, q := range pts {
			if q.x >= x1 && q.x <= x2 && q.y >= y1 && q.y <= y2 {
				want++
			}
		}
		it := rt.Search(Include(pt(x1, y1)), Include(pt(x2, y2)))
		got := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			got++
		}
		if got != want {
			t.Fatalf("trial %d: window [%v,%v]x[%v,%v]: got %d, want %d",
				trial, x1, x2, y1, y2, got, want)
		}
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b datum.Row
		want int
	}{
		{intRow(1), intRow(2), -1},
		{intRow(2, 1), intRow(2, 2), -1},
		{intRow(2), intRow(2, 1), -1}, // prefix is less
		{intRow(2, 1), intRow(2, 1), 0},
		{datum.Row{datum.Null}, intRow(0), -1}, // NULLs first
	}
	for _, tc := range cases {
		if got := CompareKeys(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareKeys(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := CompareKeys(tc.b, tc.a); got != -tc.want {
			t.Errorf("CompareKeys(%v,%v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
}

func TestRIDOrdering(t *testing.T) {
	a, b := RID{Page: 1, Slot: 5}, RID{Page: 2, Slot: 0}
	if !a.Less(b) || b.Less(a) {
		t.Error("page ordering")
	}
	c := RID{Page: 1, Slot: 6}
	if !a.Less(c) || c.Less(a) {
		t.Error("slot ordering")
	}
	if a.String() != "(1,5)" {
		t.Errorf("String = %s", a.String())
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	bt, _ := BTreeMethod{}.New([]datum.TypeID{datum.TInt}, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(intRow(int64(i*2654435761)), RID{Page: int32(i)})
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	bt, _ := BTreeMethod{}.New([]datum.TypeID{datum.TInt}, false, nil)
	for i := int64(0); i < 100000; i++ {
		bt.Insert(intRow(i), RID{Page: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % 100000)
		it := bt.Search(Include(intRow(k)), Include(intRow(k)))
		it.Next()
		it.Close()
	}
}

func BenchmarkHeapScan(b *testing.B) {
	rel, _ := NewHeapManager(64).Create("T", 2, nil)
	for i := int64(0); i < 10000; i++ {
		rel.Insert(intRow(i, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := rel.Scan()
		for {
			if _, _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

func ExampleRegistry() {
	reg := NewRegistry()
	reg.RegisterAccessMethod(RTreeMethod{})
	fmt.Println(reg.AccessMethodNames())
	// Output: [BTREE RTREE]
}

// TestRetainedRowsSurviveConcurrentWrites pins what the Relation
// contract lets a reader keep: a row Fetch returned and a batch NextCols
// filled are the reader's own. HEAP and FIXED write a record's lanes in
// place on Update, so each kept row and batch must stay identical while
// other goroutines Update and Delete the same RIDs and re-insert their
// records — a read path that aliased the stored lanes would show the
// writers' values here. Run under -race: a writer touching a handed-out
// row or lane is a reported data race as well as a mismatch.
func TestRetainedRowsSurviveConcurrentWrites(t *testing.T) {
	types := []datum.TypeID{datum.TInt, datum.TInt}
	for _, m := range []StorageManager{NewHeapManager(4), NewFixedManager()} {
		t.Run(m.Name(), func(t *testing.T) {
			rel, err := m.Create("T", 2, &IOStats{})
			if err != nil {
				t.Fatal(err)
			}
			const n = 64
			rids := make([]RID, n)
			for i := range rids {
				if rids[i], err = rel.Insert(intRow(int64(i), int64(i)*10)); err != nil {
					t.Fatal(err)
				}
			}
			type held struct{ row, want datum.Row }
			var rows []held
			type heldBatch struct {
				b    *datum.ColBatch
				want []datum.Row
			}
			var batches []heldBatch
			// read keeps one scan's worth: batches NextCols filled, and a
			// Fetch at every RID Next found.
			read := func() {
				it := rel.Scan()
				for {
					b := datum.NewColBatch(types)
					if it.(ColScanner).NextCols(b, 8) == 0 {
						break
					}
					batches = append(batches, heldBatch{b, b.MaterializeInto(nil)})
					_, rid, ok := it.Next()
					if !ok {
						break
					}
					if row, ok := rel.Fetch(rid); ok {
						rows = append(rows, held{row, row.Clone()})
					}
				}
				it.Close()
			}
			read()

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each writer owns a quarter of the records, so
					// its Delete/Insert pairs never collide with another
					// writer's; a re-inserted record takes a new RID.
					for round := int64(1); round <= 20; round++ {
						for i := w; i < n; i += 4 {
							src := intRow(int64(i), round)
							if err := rel.Update(rids[i], src); err != nil {
								t.Error(err)
								return
							}
							src[1] = datum.NewInt(-1) // the caller's row is its own again
							if err := rel.Delete(rids[i]); err != nil {
								t.Error(err)
								return
							}
							rid, err := rel.Insert(intRow(int64(i), round+100))
							if err != nil {
								t.Error(err)
								return
							}
							rids[i] = rid
						}
					}
				}(w)
			}
			// Readers keep filling batches and fetching while the writers
			// run.
			for range 20 {
				read()
			}
			wg.Wait()
			for _, h := range rows {
				if !datum.RowsEqual(h.row, h.want) {
					t.Fatalf("fetched row changed under concurrent writes: %v, was %v", h.row, h.want)
				}
			}
			for _, h := range batches {
				for i, row := range h.b.MaterializeInto(nil) {
					if !datum.RowsEqual(row, h.want[i]) {
						t.Fatalf("batch row changed under concurrent writes: %v, was %v", row, h.want[i])
					}
				}
			}
		})
	}
}
