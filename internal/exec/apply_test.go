package exec

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/plan"
)

// TestInnerRunnerChargesItsExecution: an inner runner charges every
// result it caches, and its key, to the execution that ran it and
// returns the charge when it resets; first reached by a later
// execution, it drops the earlier charge instead of releasing it into
// the new statement's record.
func TestInnerRunnerChargesItsExecution(t *testing.T) {
	rows := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}, {datum.NewInt(3)}}
	var result int64
	for _, r := range rows {
		result += datum.RowBytes(r)
	}
	scan := &scanOp{cur: tableCursor{rel: intHeap(t, 1, rows...)}, types: []datum.TypeID{datum.TInt}}
	outerCol := []plan.ColRef{{QID: 1, Ord: 0}}
	run, err := newInnerRunner(scan, outerCol, envFromCols(outerCol, nil))
	if err != nil {
		t.Fatal(err)
	}
	first := NewCtx(nil, nil)
	for _, c := range []int64{0, 1, 0} {
		if got, err := run.rows(first, datum.Row{datum.NewInt(c)}); err != nil || len(got) != 3 {
			t.Fatalf("corr %d: %d rows, %v", c, len(got), err)
		}
	}
	if hits, misses := first.SubqCache(); hits != 1 || misses != 2 || run.hits != 1 || run.misses != 2 {
		t.Fatalf("statement counted %d/%d, runner %d/%d; want 1 hit and 2 misses", hits, misses, run.hits, run.misses)
	}
	if got, want := first.MemUsed(), 2*result+run.cache.memBytes(); run.cache.memBytes() == 0 || got != want {
		t.Fatalf("two cached results charge %d B, want %d", got, want)
	}

	second := NewCtx(nil, nil)
	if err := second.Reserve(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := run.rows(second, datum.Row{datum.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	if got, want := second.MemUsed(), 1000+result+run.cache.memBytes(); run.cache.memBytes() == 0 || got != want {
		t.Fatalf("later execution holds %d B, want its own 1000 plus one result, %d", got, want)
	}
	if run.hits != 0 || run.misses != 1 {
		t.Fatalf("a new execution's counters start over: %d/%d, want 0/1", run.hits, run.misses)
	}
	run.reset(second)
	if got := second.MemUsed(); got != 1000 {
		t.Fatalf("after reset the later execution holds %d B, want 1000", got)
	}
}
