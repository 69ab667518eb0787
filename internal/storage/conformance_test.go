package storage_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// The Relation conformance table: every relation the engine ships —
// HEAP, FIXED, DISK on an in-memory file system, and HEAP under a fault
// wrapper with an empty schedule — must hand out the same values
// through Next, NextCols, Fetch and FetchInto, keep a copy it handed
// out unchanged across later writes, give exactly Scan from ScanPages
// over a partition of its pages, and count each page on first touch.

// colKind is one column of the conformance table, with the type its
// batch lanes take and a generator of the values written to it.
type colKind struct {
	name string
	typ  func() datum.TypeID
	gen  func(rng *rand.Rand) datum.Value
}

var pointType = sync.OnceValue(func() datum.TypeID {
	id, err := datum.RegisterType(datum.TypeDef{
		Name:    "CONFORMANCE_POINT",
		Compare: func(a, b any) int { return a.(int) - b.(int) },
		Format:  func(a any) string { return fmt.Sprintf("P%d", a.(int)) },
	})
	if err != nil {
		panic(err)
	}
	return id
})

func fixedType(t datum.TypeID) func() datum.TypeID { return func() datum.TypeID { return t } }

// pick returns NULL one time in six, else one of vs.
func pick(rng *rand.Rand, vs ...datum.Value) datum.Value {
	if rng.Intn(6) == 0 {
		return datum.Null
	}
	return vs[rng.Intn(len(vs))]
}

var (
	intCol = colKind{"INT", fixedType(datum.TInt), func(rng *rand.Rand) datum.Value {
		return pick(rng, datum.NewInt(rng.Int63n(1<<40)-1<<39), datum.NewInt(0), datum.NewInt(math.MinInt64))
	}}
	floatCol = colKind{"FLOAT", fixedType(datum.TFloat), func(rng *rand.Rand) datum.Value {
		return pick(rng, datum.NewFloat(rng.NormFloat64()), datum.NewFloat(math.Copysign(0, -1)),
			datum.NewFloat(math.NaN()), datum.NewFloat(math.Inf(1)))
	}}
	boolCol = colKind{"BOOL", fixedType(datum.TBool), func(rng *rand.Rand) datum.Value {
		return pick(rng, datum.NewBool(true), datum.NewBool(false))
	}}
	stringCol = colKind{"STRING", fixedType(datum.TString), func(rng *rand.Rand) datum.Value {
		return pick(rng, datum.NewString(fmt.Sprintf("s%d", rng.Intn(1000))), datum.NewString(""))
	}}
	userCol = colKind{"USER", pointType, func(rng *rand.Rand) datum.Value {
		return pick(rng, datum.NewUser(pointType(), rng.Intn(100)))
	}}
	// A FLOAT column that also holds INTs, as a write past the
	// catalog's coercion leaves it.
	mixCol = colKind{"MIX", fixedType(datum.TFloat), func(rng *rand.Rand) datum.Value {
		return pick(rng, datum.NewInt(rng.Int63n(100)), datum.NewFloat(rng.Float64()))
	}}
)

type conformCase struct {
	name   string
	cols   []colKind
	create func(t *testing.T, width int, stats *storage.IOStats) storage.Relation
}

// update writes row over the record at rid and reports whether it did.
// Only DISK may refuse, when the grown record no longer fits its page;
// the record must then be as it was.
func (c conformCase) update(t *testing.T, rel storage.Relation, rid storage.RID, row datum.Row) bool {
	t.Helper()
	err := rel.Update(rid, row)
	if err != nil && (c.name != "DISK" || !strings.Contains(err.Error(), "does not fit")) {
		t.Fatal(err)
	}
	return err == nil
}

func managerCase(name string, m func() storage.StorageManager, cols ...colKind) conformCase {
	return conformCase{name, cols, func(t *testing.T, width int, stats *storage.IOStats) storage.Relation {
		rel, err := m().Create("T", width, stats)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}}
}

func conformCases() []conformCase {
	all := []colKind{intCol, floatCol, boolCol, stringCol, userCol, mixCol}
	return []conformCase{
		managerCase("HEAP", func() storage.StorageManager { return storage.NewHeapManager(64) }, all...),
		managerCase("HEAP(4)", func() storage.StorageManager { return storage.NewHeapManager(4) }, all...),
		// FIXED holds no variable-length value, DISK no user-typed one.
		managerCase("FIXED", func() storage.StorageManager { return storage.NewFixedManager() }, intCol, floatCol, boolCol, mixCol),
		managerCase("DISK", func() storage.StorageManager {
			s, err := disk.Open("data", disk.NewMemFS(), disk.Options{PageSize: 1024, PoolPages: 16})
			if err != nil {
				panic(err)
			}
			return s.Manager()
		}, intCol, floatCol, boolCol, stringCol, mixCol),
		managerCase("HEAP under faults", func() storage.StorageManager {
			return storage.NewFaultInjector().WrapManager(storage.NewHeapManager(64))
		}, all...),
	}
}

// same reports whether a and b are the same value: the same type and,
// for a FLOAT, the same bits, so -0 differs from 0 and a NaN matches
// itself.
func same(a, b datum.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case datum.TNull:
		return true
	case datum.TFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case datum.TString:
		return a.Str() == b.Str()
	}
	return datum.Identical(a, b)
}

func sameRow(t *testing.T, what string, got, want datum.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for c := range want {
		if !same(got[c], want[c]) {
			t.Fatalf("%s: column %d is %v (type %d), want %v (type %d)", what, c, got[c], got[c].Type(), want[c], want[c].Type())
		}
	}
}

// record is one record a scan yielded, its values copied out.
type record struct {
	rid storage.RID
	row datum.Row
}

// scanNext drains it through Next, copying each row.
func scanNext(it storage.RowIterator) []record {
	defer it.Close()
	var out []record
	for row, rid, ok := it.Next(); ok; row, rid, ok = it.Next() {
		out = append(out, record{rid, row.Clone()})
	}
	return out
}

// scanCols drains it through NextCols max records at a time, or
// reports false when it has no such capability.
func scanCols(it storage.RowIterator, types []datum.TypeID, max int) ([]datum.Row, bool) {
	defer it.Close()
	cs, ok := it.(storage.ColScanner)
	if !ok {
		return nil, false
	}
	var out []datum.Row
	b := datum.NewColBatch(types)
	for {
		b.Reset()
		if cs.NextCols(b, max) == 0 {
			return out, true
		}
		out = b.MaterializeInto(out)
	}
}

func TestRelationConformance(t *testing.T) {
	for _, c := range conformCases() {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			stats := &storage.IOStats{}
			rel := c.create(t, len(c.cols), stats)
			types := make([]datum.TypeID, len(c.cols))
			for i, k := range c.cols {
				types[i] = k.typ()
			}
			gen := func() datum.Row {
				row := make(datum.Row, len(c.cols))
				for i, k := range c.cols {
					row[i] = k.gen(rng)
				}
				return row
			}

			// The model: what each live RID holds. A quarter of the
			// records are deleted, then a third of the rest updated.
			want := map[storage.RID]datum.Row{}
			var rids []storage.RID
			for range 700 {
				row := gen()
				rid, err := rel.Insert(row)
				if err != nil {
					t.Fatal(err)
				}
				want[rid] = row
				rids = append(rids, rid)
			}
			for _, rid := range rids {
				if rng.Intn(4) == 0 {
					if err := rel.Delete(rid); err != nil {
						t.Fatal(err)
					}
					delete(want, rid)
				}
			}
			for _, rid := range rids {
				if row := gen(); want[rid] != nil && rng.Intn(3) == 0 && c.update(t, rel, rid, row) {
					want[rid] = row
				}
			}
			if rel.RowCount() != int64(len(want)) || rel.PageCount() < 3 {
				t.Fatalf("%d records over %d pages, want %d over at least 3", rel.RowCount(), rel.PageCount(), len(want))
			}

			// Next, then Fetch and FetchInto at each RID it yields.
			stats.Reset()
			recs := scanNext(rel.Scan())
			if reads := pageReads(stats); reads != rel.PageCount() {
				t.Fatalf("a Next scan read %d pages of %d", reads, rel.PageCount())
			}
			if len(recs) != len(want) {
				t.Fatalf("Next yielded %d records, want %d", len(recs), len(want))
			}
			dst := make(datum.Row, len(c.cols))
			for _, r := range recs {
				sameRow(t, fmt.Sprintf("Next at %s", r.rid), r.row, want[r.rid])
				got, ok := rel.Fetch(r.rid)
				if !ok {
					t.Fatalf("Fetch at %s found nothing", r.rid)
				}
				sameRow(t, fmt.Sprintf("Fetch at %s", r.rid), got, want[r.rid])
				if f, ok := rel.(storage.RowFiller); ok {
					clear(dst)
					if !f.FetchInto(r.rid, dst) {
						t.Fatalf("FetchInto at %s found nothing", r.rid)
					}
					sameRow(t, fmt.Sprintf("FetchInto at %s", r.rid), dst, want[r.rid])
				} else if c.name != "HEAP under faults" {
					t.Fatalf("%s has no FetchInto", c.name)
				}
			}
			if !slices.IsSortedFunc(recs, func(a, b record) int { return cmpRID(a.rid, b.rid) }) {
				t.Fatal("Next yields records out of RID order")
			}
			// Every lane kind and special value is there to compare.
			for i, k := range c.cols {
				if !holds(recs, i, datum.Null) {
					t.Fatalf("column %s holds no NULL", k.name)
				}
			}
			for what, v := range map[string]datum.Value{"-0": datum.NewFloat(math.Copysign(0, -1)), "NaN": datum.NewFloat(math.NaN()), "empty string": datum.NewString("")} {
				found := false
				for i := range c.cols {
					found = found || holds(recs, i, v)
				}
				if !found && (what != "empty string" || slices.ContainsFunc(c.cols, func(k colKind) bool { return k.name == "STRING" })) {
					t.Fatalf("no column holds %s", what)
				}
			}

			// NextCols at several widths agrees value for value, and
			// counts the same page reads.
			for _, max := range []int{1, 5, 1024} {
				stats.Reset()
				rows, ok := scanCols(rel.Scan(), types, max)
				if !ok {
					break
				}
				if reads := pageReads(stats); reads != rel.PageCount() {
					t.Fatalf("a NextCols(%d) scan read %d pages of %d", max, reads, rel.PageCount())
				}
				if len(rows) != len(recs) {
					t.Fatalf("NextCols(%d) yielded %d records, want %d", max, len(rows), len(recs))
				}
				for i, r := range recs {
					sameRow(t, fmt.Sprintf("NextCols(%d) at %s", max, r.rid), rows[i], r.row)
				}
			}

			// Page ranges partitioning [0, PageCount()) give exactly Scan.
			if pr, ok := rel.(storage.PageRangeScanner); ok {
				var got []record
				for lo := int64(0); lo < rel.PageCount(); {
					hi := min(lo+1+rng.Int63n(3), rel.PageCount())
					got = append(got, scanNext(pr.ScanPages(lo, hi))...)
					lo = hi
				}
				if len(got) != len(recs) {
					t.Fatalf("page ranges yielded %d records, Scan %d", len(got), len(recs))
				}
				for i, r := range recs {
					if got[i].rid != r.rid {
						t.Fatalf("page ranges yielded %s where Scan yielded %s", got[i].rid, r.rid)
					}
					sameRow(t, fmt.Sprintf("ScanPages at %s", r.rid), got[i].row, r.row)
				}
			}

			// A Fetch copy and a filled batch stay as they were after the
			// records they came from are updated or deleted.
			b := datum.NewColBatch(types)
			it := rel.Scan()
			if cs, ok := it.(storage.ColScanner); ok {
				cs.NextCols(b, 64)
			}
			it.Close()
			batchWas := b.MaterializeInto(nil)
			type kept struct {
				got, was datum.Row
			}
			var fetched []kept
			for i, r := range recs[:64] {
				got, _ := rel.Fetch(r.rid)
				fetched = append(fetched, kept{got, got.Clone()})
				if i%2 == 0 {
					c.update(t, rel, r.rid, gen())
				} else if err := rel.Delete(r.rid); err != nil {
					t.Fatal(err)
				}
			}
			for i, f := range fetched {
				sameRow(t, fmt.Sprintf("Fetch copy %d after a write", i), f.got, f.was)
			}
			for i, row := range b.MaterializeInto(nil) {
				sameRow(t, fmt.Sprintf("batch row %d after a write", i), row, batchWas[i])
			}
		})
	}
}

func cmpRID(a, b storage.RID) int {
	if a.Less(b) {
		return -1
	}
	if b.Less(a) {
		return 1
	}
	return 0
}

// holds reports whether column c of some record is v.
func holds(recs []record, c int, v datum.Value) bool {
	return slices.ContainsFunc(recs, func(r record) bool { return same(r.row[c], v) })
}

func pageReads(stats *storage.IOStats) int64 {
	reads, _, _ := stats.Snapshot()
	return reads
}

// TestHeapInsertAllocatesLanes is the in-memory heap's memory guard: a
// record inserted into HEAP or FIXED costs its lane bytes (8 a number,
// 16 a string header, 1 a BOOL) plus its share of the page, not a
// cloned row of 24-byte values behind a slot. 65,536 rows of (INT, INT,
// FLOAT, STRING) — (INT, INT, FLOAT, BOOL) under FIXED, which holds no
// STRING — may allocate at most 64 B each over the inserts, counted by
// TotalAlloc in this one goroutine.
func TestHeapInsertAllocatesLanes(t *testing.T) {
	const rows, limit = 1 << 16, 64
	modes := []datum.Value{datum.NewString("AIR"), datum.NewString("MAIL"), datum.NewString("RAIL"), datum.NewString("SHIP")}
	for _, c := range []struct {
		m    storage.StorageManager
		last func(i int) datum.Value
	}{
		{storage.NewHeapManager(64), func(i int) datum.Value { return modes[i%len(modes)] }},
		{storage.NewFixedManager(), func(i int) datum.Value { return datum.NewBool(i%3 == 0) }},
	} {
		t.Run(c.m.Name(), func(t *testing.T) {
			rel, err := c.m.Create("T", 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			row := make(datum.Row, 4)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range rows {
				row[0], row[1], row[2], row[3] = datum.NewInt(int64(i)), datum.NewInt(int64(i%97)), datum.NewFloat(float64(i)/3), c.last(i)
				if _, err := rel.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / rows
			t.Logf("%s: %.1f B allocated per inserted row", c.m.Name(), per)
			if per > limit {
				t.Fatalf("%s: inserts allocate %.1f B per row, want at most %d", c.m.Name(), per, limit)
			}
		})
	}
}
