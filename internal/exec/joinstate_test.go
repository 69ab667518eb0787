package exec

// White-box lifetime test for the hash join's pooled state: a join that
// is the inner plan of a correlated subquery is opened and closed once
// per distinct correlation value, and closed again by its owner; each
// re-open must answer from its own build in the one state the join
// keeps, and the state must go back to the pool exactly once, when the
// tree dies.

import (
	"fmt"
	"testing"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// intHeap returns a heap relation of width columns holding rows.
func intHeap(t *testing.T, width int, rows ...datum.Row) storage.Relation {
	t.Helper()
	rel, err := storage.NewHeapManager(4).Create("T", width, &storage.IOStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := rel.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func TestHashJoinStateReleasedOnce(t *testing.T) {
	var probeRows, buildRows []datum.Row
	for i := int64(0); i < 10; i++ {
		probeRows = append(probeRows, datum.Row{datum.NewInt(i)})
	}
	for i := int64(0); i < 20; i++ {
		buildRows = append(buildRows, datum.Row{datum.NewInt(i % 5), datum.NewInt(i)})
	}
	probe := &scanOp{cur: tableCursor{rel: intHeap(t, 1, probeRows...)}, types: []datum.TypeID{datum.TInt}}
	// The build scan's predicate w >= corr[0] is the subquery's correlation.
	atLeastCorr := &expr.Cmp{Op: expr.OpGe,
		L: &expr.Col{Slot: 1, Name: "w", Typ: datum.TInt},
		R: &expr.Col{Slot: 0, Corr: true, Name: "c", Typ: datum.TInt}}
	build := &scanOp{cur: tableCursor{rel: intHeap(t, 2, buildRows...)}, types: []datum.TypeID{datum.TInt, datum.TInt},
		preds: predList{rows: []expr.Expr{atLeastCorr}, scratch: make(datum.Row, 2)}}
	types := []datum.TypeID{datum.TInt, datum.TInt, datum.TInt}
	j := &hashJoinOp{probe: probe, build: build, lKeys: []int{0}, rKeys: []int{0}, lw: 1,
		buildTypes: types[1:], outTypes: types, filter: &joinFilter{}}
	probe.jf, probe.jfKeys = j.filter, []int{0}

	// The runner's outer rows are the correlation value itself.
	outerCol := []plan.ColRef{{QID: 1, Ord: 0}}
	runner, err := newInnerRunner(j, outerCol, envFromCols(outerCol, nil))
	if err != nil {
		t.Fatal(err)
	}
	var tree Tree
	ctx := NewCtx(nil, nil)
	ctx.own = &tree
	ctx.SetColWidth(2)
	var kept *hashTable
	for _, c := range []int64{0, 7, 15, 7, 20, 3} {
		rows, err := runner.rows(ctx, datum.Row{datum.NewInt(c)})
		if err != nil {
			t.Fatal(err)
		}
		// Every build row (i%5, i) with i >= c meets its key among the
		// probe keys 0-9 exactly once.
		if want := 20 - c; int64(len(rows)) != want {
			t.Fatalf("corr %d: %d rows, want %d", c, len(rows), want)
		}
		for _, r := range rows {
			if r[0].Int() != r[1].Int() || r[2].Int() < c {
				t.Fatalf("corr %d: row %v does not satisfy the join", c, r)
			}
		}
		if kept == nil {
			kept = j.st
		}
		if j.st == nil || j.st != kept {
			t.Fatalf("corr %d: the join did not keep its state across Close", c)
		}
	}
	for i := 0; i < 2; i++ {
		if err := j.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The join, both scans' batches, the runner's result slab and its
	// cache table: each recorded once, however often they re-opened.
	if held, released := tree.Pooled(); held != 5 || released != 0 {
		t.Fatalf("before the tree dies: %d held, %d released; want 5 and 0", held, released)
	}
	tree.Release()
	tree.Release()
	if held, released := tree.Pooled(); held != 0 || released != 5 {
		t.Fatalf("after the tree died twice: %d held, %d released; want 0 and 5", held, released)
	}
	if j.st != nil || probe.batch.ColBatch != nil || build.batch.ColBatch != nil || runner.slab != nil || runner.cache.hashTable != nil {
		t.Fatal("a dead tree still holds pooled objects")
	}
	// A state put back twice would wait in the pool twice and come out of
	// it twice. The pool may also drop what it is given; that only makes
	// the check weaker, never wrong.
	if a, b := tablePool.Get(), tablePool.Get(); a == b {
		t.Fatal("the pool handed out one join state twice: it was released twice")
	}
}

// TestNestedBuildJoinFilterReopens: a hash join whose build input is
// another hash join, each hosting a pushed join filter in its probe
// scan (star_scan's S5 shape), closes the inner join twice per
// execution — once when its build input drains, once from its own
// Close — and is closed once more by the caller. Run again, the kept
// tree must return the same rows.
func TestNestedBuildJoinFilterReopens(t *testing.T) {
	rows := func(n int, f func(i int64) datum.Row) (out []datum.Row) {
		for i := int64(0); i < int64(n); i++ {
			out = append(out, f(i))
		}
		return out
	}
	one := []datum.TypeID{datum.TInt}
	two := []datum.TypeID{datum.TInt, datum.TInt}
	p := &scanOp{cur: tableCursor{rel: intHeap(t, 1, rows(30, func(i int64) datum.Row { return datum.Row{datum.NewInt(i % 7)} })...)}, types: one}
	b := &scanOp{cur: tableCursor{rel: intHeap(t, 2, rows(20, func(i int64) datum.Row { return datum.Row{datum.NewInt(i % 5), datum.NewInt(i)} })...)}, types: two}
	c := &scanOp{cur: tableCursor{rel: intHeap(t, 1, rows(3, func(i int64) datum.Row { return datum.Row{datum.NewInt(i)} })...)}, types: one}
	// inner: b ⋈ c on b.w = c.x, output (k, w, x); outer: p ⋈ inner on
	// p.k = inner.k, output (p.k, k, w, x).
	innerTypes := []datum.TypeID{datum.TInt, datum.TInt, datum.TInt}
	inner := &hashJoinOp{probe: b, build: c, lKeys: []int{1}, rKeys: []int{0}, lw: 2,
		buildTypes: one, outTypes: innerTypes, filter: &joinFilter{}}
	b.jf, b.jfKeys = inner.filter, []int{1}
	outerTypes := append(append([]datum.TypeID(nil), one...), innerTypes...)
	outer := &hashJoinOp{probe: p, build: inner, lKeys: []int{0}, rKeys: []int{0}, lw: 1,
		buildTypes: innerTypes, outTypes: outerTypes, filter: &joinFilter{}}
	p.jf, p.jfKeys = outer.filter, []int{0}

	tree := &Tree{root: outer}
	var first string
	for run := 0; run < 3; run++ {
		ctx := NewCtx(nil, nil)
		ctx.SetColWidth(2)
		got, err := tree.Run(ctx)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := outer.Close(ctx); err != nil {
			t.Fatalf("run %d: Close after the tree closed: %v", run, err)
		}
		// B's rows with w in 0-2 meet C; P holds five rows of keys 0
		// and 1 and four of key 2.
		if len(got) != 14 {
			t.Fatalf("run %d: %d rows, want 14", run, len(got))
		}
		for _, r := range got {
			if r[0].Int() != r[1].Int() || r[2].Int() != r[3].Int() || r[1].Int() > 2 {
				t.Fatalf("run %d: row %v does not satisfy the joins", run, r)
			}
		}
		if s := fmt.Sprint(got); run == 0 {
			first = s
		} else if s != first {
			t.Fatalf("run %d returned\n%s\nrun 0 returned\n%s", run, s, first)
		}
		if inner.st == nil || outer.st == nil {
			t.Fatalf("run %d: a join gave up its state at Close", run)
		}
	}
	tree.Release()
	if held, released := tree.Pooled(); held != 0 || released != 6 {
		t.Fatalf("dead tree: %d held, %d released; want 0 and 6 (two joins, three scans, the result stage)", held, released)
	}
}
