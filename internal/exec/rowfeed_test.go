package exec

// White-box hygiene tests for rowFeed, the one reused row-pointer
// container left in the executor: it adapts a columnar producer to Next
// by materializing each batch into f.rows, and must nil the slots
// beyond the batch it currently serves. A short refill or a filter
// that drops rows would otherwise leave references to rows of earlier,
// already-invalidated batches in the trailing capacity — pinning them
// and exposing stale rows to any reader that oversliced the container.
// Width 2 keeps every partial-batch edge in reach.

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/storage"
)

// vGE builds the bound predicate "col0 >= n".
func vGE(n int64) expr.Expr {
	return &expr.Cmp{
		Op: expr.OpGe,
		L:  &expr.Col{Slot: 0, Name: "v", Typ: datum.TInt},
		R:  &expr.Const{Val: datum.NewInt(n)},
	}
}

// requireTailClear fails unless every slot of the container beyond the
// batch's length is nil.
func requireTailClear(t *testing.T, where string, batch []datum.Row) {
	t.Helper()
	for i, r := range batch[len(batch):cap(batch)] {
		if r != nil {
			t.Fatalf("%s: stale row %v in container slot %d (batch len %d, cap %d)",
				where, r, len(batch)+i, len(batch), cap(batch))
		}
	}
}

// tinyColScan returns a width-2 context and a columnar scan of a heap
// table holding vals, with "col0 >= 10" pushed into the scan when
// pushed is set.
func tinyColScan(t *testing.T, pushed bool, vals ...int64) (*Ctx, *scanOp) {
	t.Helper()
	rel, err := storage.NewHeapManager(2).Create("T", 1, &storage.IOStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if _, err := rel.Insert(datum.Row{datum.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	s := &scanOp{cur: tableCursor{rel: rel}, types: []datum.TypeID{datum.TInt}}
	if pushed {
		s.preds = predList{kernels: ge10(t)}
	}
	ctx := NewCtx(nil, nil)
	ctx.SetColWidth(2)
	return ctx, s
}

func ge10(t *testing.T) []colPred {
	t.Helper()
	kernels, ok := compileColPreds([]expr.Expr{vGE(10)})
	if !ok {
		t.Fatal("col0 >= 10 did not compile to a kernel")
	}
	return kernels
}

// drain pulls s to exhaustion through Next, checking the feed's
// container after every row, and returns the values seen.
func drain(t *testing.T, ctx *Ctx, s Stream, feed *rowFeed) []int64 {
	t.Helper()
	var got []int64
	for {
		row, ok, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireTailClear(t, "after Next", feed.rows)
		if !ok {
			return got
		}
		got = append(got, row[0].Int())
	}
}

func wantInts(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestRowFeedClearsShortRefill: the final one-row batch reuses the
// container the previous two-row batch filled; slot 1 must not keep
// that batch's second row. Re-opening resets the feed completely.
func TestRowFeedClearsShortRefill(t *testing.T) {
	ctx, s := tinyColScan(t, false, 1, 2, 3)
	for run := 0; run < 2; run++ {
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if len(s.feed.rows) != 0 {
			t.Fatalf("run %d: Open left %d rows in the feed", run, len(s.feed.rows))
		}
		requireTailClear(t, "after Open", s.feed.rows)
		wantInts(t, drain(t, ctx, s, &s.feed), 1, 2, 3)
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowFeedClearsDroppedRows: rows a pushed predicate or a filter
// deselects are never materialized, and a batch that shrinks to
// one survivor must not expose the wider batch before it.
func TestRowFeedClearsDroppedRows(t *testing.T) {
	t.Run("scan", func(t *testing.T) {
		ctx, s := tinyColScan(t, true, 10, 20, 30, 1, 2)
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		wantInts(t, drain(t, ctx, s, &s.feed), 10, 20, 30)
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("filter", func(t *testing.T) {
		ctx, s := tinyColScan(t, false, 10, 20, 30, 1, 2)
		f := &filterOp{input: s, preds: predList{kernels: ge10(t)}}
		if err := f.Open(ctx); err != nil {
			t.Fatal(err)
		}
		wantInts(t, drain(t, ctx, f, &f.feed), 10, 20, 30)
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
}
