// Columnar operators: the vectorized execution spine. A ColBatchStream
// produces ColBatches — typed column vectors plus a selection vector —
// so the scan→filter→project→aggregate spine runs fused per-type
// kernels instead of per-row interface dispatch.
//
// Every columnar operator also implements Stream by materializing its
// batches back to rows, so any row-oriented parent — joins, sorts,
// exchanges, Run itself — composes with a columnar child unchanged.
// Dispatch happens at plan-refinement time: the builder emits a
// columnar operator only when the node's expressions compile to kernels
// and (for non-leaf operators) the child is columnar-native; otherwise
// it falls back to the row operator. Fault-wrapped, durable and virtual
// relations whose iterators lack the ColScanner capability are adapted
// row-by-row into vectors, so the fault/budget/cancel machinery
// exercises the columnar operators too.
package exec

import (
	"errors"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
)

// ColBatchStream is the production batch protocol: a Stream that can
// also hand out its output as columnar batches. The producer owns the
// returned batch and invalidates it at the next NextColBatch (or
// Close); a final partial batch may arrive with ok=false, an empty
// ok=true batch means "keep pulling", and an exhausted stream returns
// (nil, false, nil).
type ColBatchStream interface {
	Stream
	NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error)
}

// colBatchSize is the fill target of columnar leaf batches: wide enough
// to amortize per-batch work, since the per-row cost is a lane append,
// not a Value-slice allocation.
const colBatchSize = 1024

// SetColWidth overrides the columnar batch width so tests can land
// faults and refills on batch boundaries; n <= 0 keeps colBatchSize.
func (c *Ctx) SetColWidth(n int) { c.colWidth = n }

func (c *Ctx) colBatchWidth() int {
	if c.colWidth > 0 {
		return c.colWidth
	}
	return colBatchSize
}

// colBatchSource is the producer side of rowFeed adaptation.
type colBatchSource interface {
	NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error)
}

// rowFeed adapts a columnar producer to the Stream interface by
// materializing each batch into retainable rows. The
// rows slice is the reused batch container; trailing slots are cleared
// before refill so it never pins rows from earlier batches.
type rowFeed struct {
	rows []datum.Row
	pos  int
	done bool
}

func (f *rowFeed) reset() {
	clear(f.rows)
	f.rows = f.rows[:0]
	f.pos = 0
	f.done = false
}

func (f *rowFeed) refill(ctx *Ctx, src colBatchSource) (bool, error) {
	b, more, err := src.NextColBatch(ctx)
	if err != nil {
		return false, err
	}
	clear(f.rows)
	f.rows = f.rows[:0]
	if b != nil {
		f.rows = b.MaterializeInto(f.rows)
	}
	f.pos = 0
	return more, nil
}

func (f *rowFeed) next(ctx *Ctx, src colBatchSource) (datum.Row, bool, error) {
	for f.pos >= len(f.rows) {
		if f.done {
			return nil, false, nil
		}
		more, err := f.refill(ctx, src)
		if err != nil {
			return nil, false, err
		}
		f.done = !more
	}
	r := f.rows[f.pos]
	f.pos++
	return r, true, nil
}

// ---------------------------------------------------------------------
// Columnar SCAN

// colScanOp materializes relation pages straight into column vectors
// and evaluates pushed-down predicate kernels plus an optional join
// filter against them, emitting batches that are already filtered.
type colScanOp struct {
	cur   tableCursor
	types []datum.TypeID
	preds []colPred

	// jf, when set, is a join filter pushed down from a hash join above:
	// rows whose key hash cannot be in the build side are dropped here,
	// inside the scan kernel, before they travel up the pipeline.
	jf     *joinFilter
	jfKeys []int
	// jfDropped counts the rows the join filter removed since the stats
	// decorator last harvested it (see statsOp.Close).
	jfDropped int64

	batch   *datum.ColBatch
	selBuf  []int
	hashBuf []uint64
	nullBuf []bool
	feed    rowFeed
}

func (s *colScanOp) Open(ctx *Ctx) error {
	s.cur.open()
	s.feed.reset()
	return nil
}

func (s *colScanOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	if s.batch == nil {
		s.batch = datum.NewColBatch(s.types)
	}
	max := ctx.colBatchWidth()
	for {
		s.batch.Reset()
		k, err := s.cur.fill(ctx, s.batch, max)
		if err != nil || k == 0 {
			return nil, false, err
		}
		if err := applyColPreds(s.preds, s.batch, &s.selBuf); err != nil {
			return nil, false, err
		}
		if s.jf != nil {
			before := s.batch.NumLive()
			s.applyJoinFilter()
			s.jfDropped += int64(before - s.batch.NumLive())
		}
		if s.batch.NumLive() > 0 {
			return s.batch, true, nil
		}
		// Entire chunk filtered out; keep pulling. tickRows above keeps
		// budget and cancellation responsive across empty chunks.
	}
}

func (s *colScanOp) applyJoinFilter() {
	if !s.jf.ready.Load() {
		return
	}
	b := s.batch
	if s.nullBuf == nil {
		s.nullBuf = make([]bool, 0, colBatchSize)
	}
	s.hashBuf, s.nullBuf = b.HashLive(s.jfKeys, s.hashBuf[:0], s.nullBuf[:0])
	if b.Sel == nil {
		if cap(s.selBuf) < b.Len() {
			s.selBuf = make([]int, 0, b.Len())
		}
		sel := s.selBuf[:0]
		for i := 0; i < b.Len(); i++ {
			// NULL keys never match under = ; drop them with the misses.
			if !s.nullBuf[i] && s.jf.mayContain(s.hashBuf[i]) {
				sel = append(sel, i)
			}
		}
		b.Sel = sel
		return
	}
	out := b.Sel[:0]
	for j, i := range b.Sel {
		if !s.nullBuf[j] && s.jf.mayContain(s.hashBuf[j]) {
			out = append(out, i)
		}
	}
	b.Sel = out
}

func (s *colScanOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return s.feed.next(ctx, s)
}

func (s *colScanOp) Close(ctx *Ctx) error {
	s.cur.close()
	return nil
}

// ---------------------------------------------------------------------
// Columnar FILTER

// colFilterOp shrinks its input's selection vector with compiled
// kernels; column data never moves.
type colFilterOp struct {
	input  ColBatchStream
	preds  []colPred
	selBuf []int
	feed   rowFeed
}

func (f *colFilterOp) Open(ctx *Ctx) error {
	f.feed.reset()
	return f.input.Open(ctx)
}

func (f *colFilterOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	for {
		b, more, err := f.input.NextColBatch(ctx)
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, more, nil
		}
		if err := applyColPreds(f.preds, b, &f.selBuf); err != nil {
			return nil, false, err
		}
		if b.NumLive() > 0 || !more {
			return b, more, nil
		}
	}
}

func (f *colFilterOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return f.feed.next(ctx, f)
}

func (f *colFilterOp) Close(ctx *Ctx) error { return f.input.Close(ctx) }

// ---------------------------------------------------------------------
// Columnar PROJECT

// colProjectOp remaps column vectors by header copy — a projection of
// bare columns moves no data — and replicates constants into owned
// vectors.
type colProjectOp struct {
	input  ColBatchStream
	srcs   []int // input slot per output column; -1 marks a constant
	consts []datum.Value
	out    *datum.ColBatch
	feed   rowFeed
}

func (p *colProjectOp) Open(ctx *Ctx) error {
	p.feed.reset()
	return p.input.Open(ctx)
}

func (p *colProjectOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	b, more, err := p.input.NextColBatch(ctx)
	if err != nil || b == nil {
		return nil, more, err
	}
	p.out.AliasFrom(b, p.srcs, p.consts)
	return p.out, more, nil
}

func (p *colProjectOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return p.feed.next(ctx, p)
}

func (p *colProjectOp) Close(ctx *Ctx) error { return p.input.Close(ctx) }

// ---------------------------------------------------------------------
// Columnar hash GROUP BY

// colGroupOp is the columnar hash aggregate: one map probe per live row
// using the lane-direct grouping key (byte-identical to RowKey, so its
// groups agree with groupOp's), then per-aggregate typed update kernels
// over the batch. Like groupOp it drains its input inside Open and the
// input's lifetime ends there on every path.
type colGroupOp struct {
	input     ColBatchStream
	groupCols []int
	aggs      []*colAgg

	keyRows []datum.Row
	out     []datum.Row
	pos     int
	mem     memCharge
}

func (g *colGroupOp) Open(ctx *Ctx) (err error) {
	g.out, g.keyRows, g.pos = nil, nil, 0
	for _, a := range g.aggs {
		a.reset()
	}
	if err := g.input.Open(ctx); err != nil {
		return errors.Join(err, g.input.Close(ctx))
	}
	defer func() { err = errors.Join(err, g.input.Close(ctx)) }()
	groups := map[string]int{}
	var keyBuf []byte
	var gis []int
	for {
		b, more, err := g.input.NextColBatch(ctx)
		if err != nil {
			return err
		}
		if b != nil && b.NumLive() > 0 {
			if err := ctx.tickRows(b.NumLive()); err != nil {
				return err
			}
			gis = gis[:0]
			assign := func(i int) {
				keyBuf = b.AppendKeyCols(keyBuf[:0], g.groupCols, i)
				gi, ok := groups[string(keyBuf)]
				if !ok {
					gi = len(g.keyRows)
					groups[string(keyBuf)] = gi
					key := make(datum.Row, len(g.groupCols))
					for j, c := range g.groupCols {
						key[j] = b.Vecs[c].ValueAt(i)
					}
					g.keyRows = append(g.keyRows, key)
					for _, a := range g.aggs {
						a.grow(gi + 1)
					}
				}
				gis = append(gis, gi)
			}
			if b.Sel != nil {
				for _, i := range b.Sel {
					assign(i)
				}
			} else {
				for i := 0; i < b.Len(); i++ {
					assign(i)
				}
			}
			for _, a := range g.aggs {
				if err := a.updateBatch(b, gis); err != nil {
					return err
				}
			}
		}
		if !more {
			break
		}
	}
	// Scalar aggregation produces one row even for empty input.
	if len(g.keyRows) == 0 && len(g.groupCols) == 0 {
		g.keyRows = append(g.keyRows, nil)
		for _, a := range g.aggs {
			a.grow(1)
		}
	}
	for gi, key := range g.keyRows {
		row := make(datum.Row, 0, len(g.groupCols)+len(g.aggs))
		row = append(row, key...)
		for _, a := range g.aggs {
			row = append(row, a.result(gi))
		}
		g.out = append(g.out, row)
	}
	return g.mem.charge(ctx, g.out)
}

func (g *colGroupOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if g.pos >= len(g.out) {
		return nil, false, nil
	}
	r := g.out[g.pos]
	g.pos++
	return r, true, nil
}

func (g *colGroupOp) Close(ctx *Ctx) error {
	g.out, g.keyRows = nil, nil
	g.mem.release(ctx)
	return nil
}

// ---------------------------------------------------------------------
// Pushed-down join filter

// joinFilter generalizes bloom-join: a hash join over equi-keys builds
// a small bit filter from its build-side key hashes and the columnar
// scan feeding its probe side drops non-matching rows inside the scan
// kernel. False positives are re-checked by the join's own equality
// probe; the filter only ever drops rows whose key hash is provably
// absent from the build side, so it is invisible to results.
//
// ready flips once the build side has been consumed. A probe-side scan
// drained before that (e.g. from inside a blocking operator's Open)
// simply sees an inactive filter.
type joinFilter struct {
	ready atomic.Bool
	mask  uint64
	bits  []uint64
}

// populate sizes the filter to the build table's distinct key hashes
// (~8 bits each, power of two) and inserts them.
func (f *joinFilter) populate(table map[uint64][]datum.Row) {
	bits := 64
	for bits < len(table)*8 {
		bits <<= 1
	}
	words := bits / 64
	if cap(f.bits) >= words {
		f.bits = f.bits[:words]
		clear(f.bits)
	} else {
		f.bits = make([]uint64, words)
	}
	f.mask = uint64(bits - 1)
	for h := range table {
		f.set(h)
		f.set(jfRehash(h))
	}
	f.ready.Store(true)
}

func (f *joinFilter) set(h uint64) {
	i := h & f.mask
	f.bits[i>>6] |= 1 << (i & 63)
}

func (f *joinFilter) mayContain(h uint64) bool {
	i := h & f.mask
	if f.bits[i>>6]>>(i&63)&1 == 0 {
		return false
	}
	j := jfRehash(h) & f.mask
	return f.bits[j>>6]>>(j&63)&1 != 0
}

// jfRehash derives the second probe position: FNV-64a over the hash's
// little-endian bytes.
func jfRehash(h uint64) uint64 {
	x := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		x = (x ^ (h >> (8 * i) & 0xff)) * 1099511628211
	}
	return x
}

// pushJoinFilter walks the probe-side subtree through slot-preserving
// operators (and their stats decorators) looking for a columnar scan to
// host the join filter, remapping key slots through projections. LIMIT
// blocks the push: a filter below LIMIT would change which rows fill
// the quota.
func pushJoinFilter(s Stream, keys []int) (*colScanOp, []int) {
	k := append([]int(nil), keys...)
	for {
		switch t := undecorated(s).(type) {
		case *filterOp:
			s = t.input
		case *colFilterOp:
			s = t.input
		case *colProjectOp:
			for i, slot := range k {
				if slot >= len(t.srcs) || t.srcs[slot] < 0 {
					return nil, nil
				}
				k[i] = t.srcs[slot]
			}
			s = t.input
		case *colScanOp:
			if t.jf != nil {
				// Already hosting another join's filter; pushing two
				// would conflate their key spaces.
				return nil, nil
			}
			return t, k
		default:
			return nil, nil
		}
	}
}

// ---------------------------------------------------------------------
// Builder dispatch

// Vectorized returns a copy of the builder with columnar operator
// dispatch switched on or off.
func (b *Builder) Vectorized(on bool) *Builder {
	nb := *b
	nb.vec = on
	return &nb
}

// tryColScan attempts a columnar-native scan; ok=false (with nil error)
// means the node needs the row path.
func (b *Builder) tryColScan(n *plan.Node, corr map[plan.ColRef]int) (Stream, bool, error) {
	if n.Table == nil || n.Table.Rel == nil {
		return nil, false, nil
	}
	env := envFromCols(n.Cols, corr)
	preds, err := env.bindAll(n.Preds)
	if err != nil {
		return nil, false, err
	}
	kernels, ok := compileColPreds(preds)
	if !ok {
		return nil, false, nil
	}
	return &colScanOp{
		cur:   b.cursorFor(n),
		types: append([]datum.TypeID(nil), n.Types...),
		preds: kernels,
	}, true, nil
}

// tryColProject compiles a projection of bare columns and constants.
func tryColProject(in Stream, exprs []expr.Expr, types []datum.TypeID) (Stream, bool) {
	cin, ok := in.(ColBatchStream)
	if !ok {
		return nil, false
	}
	srcs := make([]int, len(exprs))
	consts := make([]datum.Value, len(exprs))
	for i, e := range exprs {
		switch t := e.(type) {
		case *expr.Col:
			if t.Corr || t.Slot < 0 {
				return nil, false
			}
			srcs[i] = t.Slot
		case *expr.Const:
			srcs[i] = -1
			consts[i] = t.Val
		default:
			return nil, false
		}
	}
	return &colProjectOp{
		input:  cin,
		srcs:   srcs,
		consts: consts,
		out:    datum.NewColBatch(types),
	}, true
}

// tryColGroup compiles a hash aggregate over built-in, non-DISTINCT
// aggregate calls with bare-column arguments.
func tryColGroup(in Stream, n *plan.Node, args []expr.Expr) (Stream, bool) {
	cin, ok := in.(ColBatchStream)
	if !ok {
		return nil, false
	}
	aggs := make([]*colAgg, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Distinct {
			return nil, false
		}
		c, ok := asBoundCol(args[i])
		if !ok {
			return nil, false
		}
		ca, ok := newColAgg(a.Name, c.Slot)
		if !ok {
			return nil, false
		}
		aggs[i] = ca
	}
	return &colGroupOp{input: cin, groupCols: n.GroupCols, aggs: aggs}, true
}
