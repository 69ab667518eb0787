package exec

// White-box lifetime test for the hash join's pooled state: a join that
// is the inner plan of a correlated subquery is opened and closed once
// per distinct correlation value, and closed again by its owner; each
// execution must answer from its own build, and the state must go back
// to the pool exactly once per Open.

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/expr"
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

	runner := &subplanRunner{inner: j, cache: newSubqCache()}
	ctx := NewCtx(nil, nil)
	ctx.SetColWidth(2)
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
		if j.st != nil {
			t.Fatalf("corr %d: the join still holds pooled state after its execution closed", c)
		}
	}
	for i := 0; i < 2; i++ {
		if err := j.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A state put back twice would wait in the pool twice and come out of
	// it twice. The pool may also drop what it is given; that only makes
	// the check weaker, never wrong.
	if a, b := joinStatePool.Get(), joinStatePool.Get(); a == b {
		t.Fatal("the pool handed out one join state twice: it was released twice")
	}
}
