package exec

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
)

// countdown is a columnar source of n rows (key, i) whose keys descend
// from n, so every row it yields sorts before all that came before.
// Each time it is asked for a batch it records the most rows the SORT
// above it has buffered so far: the rows of its buffer, or, after a
// prune, of the spare batch the buffer was before.
type countdown struct {
	n, next int
	b       datum.ColBatch
	sort    *sortOp
	most    int
}

func (c *countdown) Open(*Ctx) error {
	c.next = 0
	c.b.SetTypes([]datum.TypeID{datum.TInt, datum.TInt})
	return nil
}

func (c *countdown) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	for _, h := range []batchHold{c.sort.buf, c.sort.spare} {
		if h.ColBatch != nil {
			c.most = max(c.most, h.Len())
		}
	}
	if c.next >= c.n {
		return nil, false, nil
	}
	c.b.Reset()
	for ; c.b.Len() < ctx.colBatchWidth() && c.next < c.n; c.next++ {
		c.b.AppendRow(datum.Row{datum.NewInt(int64(c.n - c.next)), datum.NewInt(int64(c.next))})
	}
	return &c.b, c.next < c.n, nil
}

func (c *countdown) Next(*Ctx) (datum.Row, bool, error) { return nil, false, nil }
func (c *countdown) Close(*Ctx) error                   { return nil }

// TestTopNBufferBounded: SORT under LIMIT 5 over 100,000 rows, each of
// which sorts before every row before it, never buffers more than 2k
// rows plus one batch while it drains, at the production batch width
// and at width 7, and returns the five least.
func TestTopNBufferBounded(t *testing.T) {
	const n, k = 100000, 5
	for _, width := range []int{colBatchSize, 7} {
		src := &countdown{n: n}
		s := &sortOp{input: src, types: []datum.TypeID{datum.TInt, datum.TInt},
			keys: []plan.SortKey{{Slot: 0}}, limit: &expr.Const{Val: datum.NewInt(k)}}
		src.sort = s
		ctx := NewCtx(nil, nil)
		ctx.SetColWidth(width)
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var got []int64
		for {
			b, more, err := s.NextColBatch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b != nil {
				_ = b.EachLive(func(i int) error {
					got = append(got, b.Vecs[0].Ints[i])
					return nil
				})
			}
			if !more {
				break
			}
		}
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		t.Logf("width %d: the buffer held at most %d rows", width, src.most)
		if src.most > 2*k+width || src.most <= 2*k {
			t.Fatalf("width %d: the buffer held at most %d rows; want more than %d and at most %d", width, src.most, 2*k, 2*k+width)
		}
		if want := []int64{1, 2, 3, 4, 5}; len(got) != k || got[0] != want[0] || got[4] != want[4] {
			t.Fatalf("width %d: top %d keys %v, want %v", width, k, got, want)
		}
	}
}
