package exec

import (
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
)

// ---------------------------------------------------------------------
// SCAN

// scanOp reads a stored table straight into one pooled batch and
// narrows it with its pushed-down predicates and, when a hash join
// above pushed one, a join filter, emitting batches that are already
// filtered.
type scanOp struct {
	cur   tableCursor
	types []datum.TypeID
	preds predList

	// jf, when set, is a join filter pushed down from a hash join above:
	// rows whose key hash cannot be in the build side are dropped here,
	// inside the scan, before they travel up the pipeline.
	jf     *joinFilter
	jfKeys []int
	// jfDropped counts the rows the join filter removed since the stats
	// decorator last harvested it (see statsOp.Close).
	jfDropped int64

	batch batchHold
	feed  rowFeed
}

func (b *Builder) buildScan(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	env := envFromCols(n.Cols, corr)
	preds, err := env.bindAll(n.Preds)
	if err != nil {
		return nil, err
	}
	return &scanOp{cur: b.cursorFor(n), types: slotTypes(n), preds: b.predList(preds, len(n.Cols))}, nil
}

func (s *scanOp) Open(ctx *Ctx) error {
	s.cur.open()
	s.feed.reset()
	return nil
}

func (s *scanOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	max := ctx.colBatchWidth()
	for {
		b := s.batch.get(ctx, s.types)
		k, err := s.cur.fill(ctx, b, max)
		if err != nil || k == 0 {
			return nil, false, err
		}
		if err := s.preds.apply(ctx, b); err != nil {
			return nil, false, err
		}
		if s.jf != nil {
			before := b.NumLive()
			s.applyJoinFilter(b)
			s.jfDropped += int64(before - b.NumLive())
		}
		if b.NumLive() > 0 {
			return b, true, nil
		}
		// Entire chunk filtered out; keep pulling. The cursor's budget
		// ticks keep budgets and cancellation responsive across empty
		// chunks.
	}
}

func (s *scanOp) applyJoinFilter(b *datum.ColBatch) {
	f := s.jf
	if !f.ready.Load() {
		return
	}
	f.hashBuf, f.nullBuf = b.HashLive(s.jfKeys, f.hashBuf[:0], f.nullBuf[:0])
	keep, j := b.SelBuf(), 0
	_ = b.EachLive(func(i int) error {
		// NULL keys never match under = ; drop them with the misses.
		if !f.nullBuf[j] && f.mayContain(f.hashBuf[j]) {
			keep = append(keep, i)
		}
		j++
		return nil
	})
	b.Sel = keep
}

func (s *scanOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return s.feed.next(ctx, s)
}

func (s *scanOp) Close(ctx *Ctx) error {
	s.cur.close()
	s.batch.empty()
	return nil
}

// ---------------------------------------------------------------------
// ISCAN: index range/window access with RID fetch

// indexScanOp fetches each record an index search yields into one
// reused row (storage.RowFiller), resolves it, and appends the visible
// ones its predicates accept to the batch it holds, so no consumer
// keeps a row storage will overwrite and a lookup allocates nothing.
type indexScanOp struct {
	rel     storage.Relation
	tv      *txn.TableVersions
	at      storage.Attachment
	keyCols []int
	types   []datum.TypeID
	lo, hi  []expr.Expr
	preds   []expr.Expr
	it      storage.EntryIterator
	// Open evaluates the bounds into loKey/hiKey, which live with the
	// tree, as do the row a fetch fills and the key an image in flux
	// projects.
	loKey, hiKey, row, key datum.Row
	// left, when a LIMIT above set it, is the LIMIT's quota: a batch
	// holds no more rows than it still needs.
	left  *int64
	batch batchHold
	feed  rowFeed
}

func (b *Builder) buildIndexScan(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	env := envFromCols(n.Cols, corr)
	preds, err := env.bindAll(n.Preds)
	if err != nil {
		return nil, err
	}
	// Bound expressions may reference only constants, parameters and
	// correlation columns; bind against an empty local schema.
	boundEnv := envFromCols(nil, corr)
	lo, err := boundEnv.bindAll(n.LoVals)
	if err != nil {
		return nil, err
	}
	hi, err := boundEnv.bindAll(n.HiVals)
	if err != nil {
		return nil, err
	}
	return &indexScanOp{
		rel: n.Table.Rel, tv: n.Table.MVCC,
		at: n.Index.At, keyCols: n.Index.KeyCols, types: slotTypes(n),
		lo: lo, hi: hi, preds: preds,
		loKey: make(datum.Row, len(lo)), hiKey: make(datum.Row, len(hi)),
		row: make(datum.Row, len(n.Table.Cols)),
	}, nil
}

func (s *indexScanOp) Open(ctx *Ctx) error {
	evalKey := func(es []expr.Expr, key datum.Row) (storage.Bound, error) {
		allNull := true // vacuously so without bound expressions
		for i, e := range es {
			v, err := e.Eval(ctx.exprCtx(), nil)
			if err != nil {
				return storage.Bound{}, err
			}
			key[i] = v
			if !v.IsNull() {
				allNull = false
			}
		}
		if allNull {
			return storage.Unbounded, nil
		}
		return storage.Include(key), nil
	}
	lo, err := evalKey(s.lo, s.loKey)
	if err != nil {
		return err
	}
	hi, err := evalKey(s.hi, s.hiKey)
	if err != nil {
		return err
	}
	s.feed.reset()
	s.it = s.at.Search(lo, hi)
	return nil
}

func (s *indexScanOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	b, max := s.batch.get(ctx, s.types), int64(ctx.colBatchWidth())
	if s.left != nil {
		max = min(max, *s.left)
	}
	for int64(b.Len()) < max {
		e, ok := s.it.Next()
		if !ok {
			if err := storage.IterErr(s.it); err != nil {
				return nil, false, err
			}
			return b, false, nil
		}
		if err := ctx.tick(); err != nil {
			return nil, false, err
		}
		row, inFlux, live := s.tv.Fetch(s.rel, e.RID, ctx.Snap, s.row)
		if !live {
			continue // entry for a deleted record, or for a row this snapshot does not see
		}
		// A row in flux may be linked under several keys (its current one
		// plus stale old keys); only the entry matching the visible
		// image's key yields the row, so each visible row surfaces
		// exactly once.
		if inFlux {
			if s.key == nil {
				s.key = make(datum.Row, len(s.keyCols))
			}
			for i, c := range s.keyCols {
				s.key[i] = row[c]
			}
			if storage.CompareKeys(s.key, e.Key) != 0 {
				continue
			}
		}
		match, err := evalPreds(ctx, s.preds, row)
		if err != nil {
			return nil, false, err
		}
		if match {
			b.AppendRow(row)
		}
	}
	return b, true, nil
}

func (s *indexScanOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return s.feed.next(ctx, s)
}

func (s *indexScanOp) Close(ctx *Ctx) error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	s.batch.empty()
	return nil
}

// ---------------------------------------------------------------------
// ACCESS (identity relabel), FILTER, PROJECT, LIMIT

// buildAccess builds no operator: ACCESS only renames its input's
// columns, which slot binding has already resolved, so the node is
// served by its input's stream — a columnar input stays columnar for
// the operator above.
func (b *Builder) buildAccess(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	return b.Build(n.Inputs[0], corr)
}

// filterOp shrinks its input's selection vector; column data never
// moves.
type filterOp struct {
	input ColBatchStream
	preds predList
	feed  rowFeed
}

func (b *Builder) buildFilter(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	env := envFromCols(n.Inputs[0].Cols, corr)
	preds, err := env.bindAll(n.Preds)
	if err != nil {
		return nil, err
	}
	preds, err = b.refineSubplans(preds, n.Inputs[0].Cols, corr)
	if err != nil {
		return nil, err
	}
	return &filterOp{
		input: asColBatchStream(in, slotTypes(n.Inputs[0])),
		preds: b.predList(preds, len(n.Inputs[0].Cols)),
	}, nil
}

func (f *filterOp) Open(ctx *Ctx) error {
	f.feed.reset()
	return f.input.Open(ctx)
}

func (f *filterOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	for {
		b, more, err := f.input.NextColBatch(ctx)
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, more, nil
		}
		if err := f.preds.apply(ctx, b); err != nil {
			return nil, false, err
		}
		if b.NumLive() > 0 || !more {
			return b, more, nil
		}
	}
}

func (f *filterOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return f.feed.next(ctx, f)
}

func (f *filterOp) Close(ctx *Ctx) error { return f.input.Close(ctx) }

// projectOp computes its output columns from each input batch. A
// projection of bare columns and constants (an alias projection) moves
// no data: its output batch is header copies of the input's vectors
// plus owned constant vectors, and a row consumer gets its rows read
// straight from the input batch. Any other projection runs the row
// evaluators once per live row into a pooled batch of its own.
type projectOp struct {
	input ColBatchStream
	types []datum.TypeID
	// srcs/consts are the alias plan — the input slot of each output
	// column, -1 for a constant — or nil when some expression is
	// neither. pushJoinFilter remaps key slots through them.
	srcs   []int
	consts []datum.Value
	// rows runs a projection without an alias plan, into out.
	rows  *rowProjection
	alias *datum.ColBatch
	out   batchHold
	feed  rowFeed
}

// rowProjection is a projection on the row evaluators: exprs read the
// scratch row, and vals is the reused row of their values.
type rowProjection struct {
	exprs         []expr.Expr
	scratch, vals datum.Row
}

func (b *Builder) buildProject(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	env := envFromCols(n.Inputs[0].Cols, corr)
	exprs, err := env.bindAll(n.Exprs)
	if err != nil {
		return nil, err
	}
	exprs, err = b.refineSubplans(exprs, n.Inputs[0].Cols, corr)
	if err != nil {
		return nil, err
	}
	p := &projectOp{input: asColBatchStream(in, slotTypes(n.Inputs[0])), types: slotTypes(n)}
	if p.srcs, p.consts = aliasPlan(exprs); p.srcs == nil {
		p.rows = &rowProjection{exprs, make(datum.Row, len(n.Inputs[0].Cols)), make(datum.Row, len(exprs))}
	}
	return p, nil
}

// aliasPlan maps a projection of bare columns and constants to input
// slots (-1 for a constant) and the constants; nil when some expression
// is neither. consts stays nil when there is no constant.
func aliasPlan(exprs []expr.Expr) (srcs []int, consts []datum.Value) {
	srcs = make([]int, len(exprs))
	for i, e := range exprs {
		if c, ok := asBoundCol(e); ok {
			srcs[i] = c.Slot
			continue
		}
		k, ok := e.(*expr.Const)
		if !ok {
			return nil, nil
		}
		if consts == nil {
			consts = make([]datum.Value, len(exprs))
		}
		srcs[i], consts[i] = -1, k.Val
	}
	return srcs, consts
}

func (p *projectOp) Open(ctx *Ctx) error {
	p.feed.reset()
	return p.input.Open(ctx)
}

func (p *projectOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	b, more, err := p.input.NextColBatch(ctx)
	if err != nil || b == nil {
		return nil, more, err
	}
	if p.srcs != nil {
		if p.alias == nil {
			p.alias = datum.NewColBatch(p.types)
		}
		p.alias.AliasFrom(b, p.srcs, p.consts)
		return p.alias, more, nil
	}
	out := p.out.get(ctx, p.types)
	err = b.EachLive(func(i int) error {
		if err := p.rows.eval(ctx, b, i, p.rows.vals); err != nil {
			return err
		}
		out.AppendRow(p.rows.vals)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, more, nil
}

// eval evaluates the projection of live row i of b into out.
func (r *rowProjection) eval(ctx *Ctx, b *datum.ColBatch, i int, out datum.Row) error {
	row, ec := loadRow(r.scratch, b, i), ctx.exprCtx()
	for k, e := range r.exprs {
		v, err := e.Eval(ec, row)
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

func (p *projectOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return p.feed.next(ctx, p)
}

func (p *projectOp) Close(ctx *Ctx) error {
	p.out.empty()
	return p.input.Close(ctx)
}

// limitOp passes its input's batches through until its quota fills: it
// cuts the batch that fills it by its selection vector and signals the
// statement done. ISCAN, and a row-only input (GATHER, the apply)
// through a batchFeed, read no more rows than the quota still needs.
type limitOp struct {
	input ColBatchStream
	nExpr expr.Expr
	left  int64
	feed  rowFeed
}

func (b *Builder) buildLimit(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	env := envFromCols(nil, corr)
	ne, err := env.bind(n.LimitExpr)
	if err != nil {
		return nil, err
	}
	if s, ok := undecorated(in).(*sortOp); ok {
		// A SORT right below needs to produce only the rows LIMIT returns.
		s.limit = ne
	}
	l := &limitOp{input: asColBatchStream(in, slotTypes(n.Inputs[0])), nExpr: ne}
	if f, ok := l.input.(*batchFeed); ok {
		f.left = &l.left
	}
	if s, ok := undecorated(in).(*indexScanOp); ok {
		s.left = &l.left
	}
	return l, nil
}

// evalLimit evaluates a LIMIT bound, which must be an integer.
func evalLimit(ctx *Ctx, e expr.Expr) (int64, error) {
	v, err := e.Eval(ctx.exprCtx(), nil)
	if err != nil {
		return 0, err
	}
	if v.Type() != datum.TInt {
		return 0, fmt.Errorf("exec: LIMIT must be an integer")
	}
	return v.Int(), nil
}

func (l *limitOp) Open(ctx *Ctx) (err error) {
	l.feed.reset()
	if l.left, err = evalLimit(ctx, l.nExpr); err != nil {
		return err
	}
	return l.input.Open(ctx)
}

func (l *limitOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	if l.left <= 0 {
		return nil, false, nil
	}
	b, more, err := l.input.NextColBatch(ctx)
	if err != nil || b == nil {
		return nil, false, err
	}
	if n := int64(b.NumLive()); n < l.left {
		l.left -= n
		return b, more, nil
	} else if n > l.left {
		sel := b.Sel
		if sel == nil {
			sel = b.SelBuf()
			for i := range int(l.left) {
				sel = append(sel, i)
			}
		}
		b.Sel = sel[:l.left]
	}
	// Quota filled: tell the rest of the statement no more rows are
	// needed, so parallel scan workers stop draining their morsels.
	l.left = 0
	ctx.signalDone()
	return b, false, nil
}

func (l *limitOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return l.feed.next(ctx, l)
}

func (l *limitOp) Close(ctx *Ctx) error { return l.input.Close(ctx) }

// ---------------------------------------------------------------------
// SORT

// sortOp is SORT, full or, under a LIMIT k, top-N, in one pass over
// lanes. Open drains the input's batches into a held batch. Under a
// bound k it drops each arriving row that does not sort before the k-th
// row kept so far, and once the batch holds more than 2k rows it prunes
// back to the k least; a full sort never prunes. A prune, and the final
// order, gather the buffer's rows through a sorted permutation into the
// spare held batch, which becomes the buffer; the window serves the
// last. Both batches stay with the operator across executions.
type sortOp struct {
	input ColBatchStream
	types []datum.TypeID
	keys  []plan.SortKey
	limit expr.Expr // the bound of a LIMIT directly above, else nil
	buf   batchHold
	spare batchHold
	window
	mem memCharge
}

func (b *Builder) buildSort(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	types := slotTypes(n.Inputs[0])
	return &sortOp{input: asColBatchStream(in, types), types: types, keys: n.SortKeys}, nil
}

// Open sorts the input. The order is sortRowLess's, ties kept in arrival
// order, so a top-N returns exactly the first k rows of the full sort:
// rows the pruning keeps precede every later arrival, and a later
// arrival that ties the k-th kept row sorts after it.
func (s *sortOp) Open(ctx *Ctx) error {
	s.drop()
	k := int64(1<<63 - 1) // no LIMIT: no bound
	if s.limit != nil {
		n, err := evalLimit(ctx, s.limit)
		if err != nil {
			return err
		}
		k = max(n, 0)
	}
	s.mem.release(ctx)
	buf, full := s.buf.get(ctx, s.types), false
	err := drainBatches(ctx, s.input, false, func(b *datum.ColBatch) error {
		if k == 0 {
			return nil
		}
		if full {
			// buf's first k rows are the k least so far, in order.
			keep, last := b.SelBuf(), laneRow{buf, int(k) - 1}
			_ = b.EachLive(func(i int) error {
				if sortCompare(s.keys, len(s.types), laneRow{b, i}, last, laneAt) < 0 {
					keep = append(keep, i)
				}
				return nil
			})
			b.Sel = keep
		}
		from := buf.Len()
		buf.AppendLive(b)
		if int64(buf.Len())-k <= k {
			return s.mem.add(ctx, buf.MemBytes(from))
		}
		buf, full = s.order(ctx, int(k)), true
		return s.mem.charge(ctx, buf.MemBytes(0))
	})
	if err != nil {
		return err
	}
	buf = s.order(ctx, int(min(k, int64(buf.Len()))))
	s.spare.empty()
	s.serve(buf, 0, buf.Len())
	return s.mem.charge(ctx, buf.MemBytes(0))
}

// order gathers the buffer's n least rows, in order, into the spare
// batch and makes it the buffer, which it returns.
func (s *sortOp) order(ctx *Ctx, n int) *datum.ColBatch {
	buf := s.buf.ColBatch
	perm := buf.SelBuf()
	for i := range buf.Len() {
		perm = append(perm, i)
	}
	slices.SortFunc(perm, func(i, j int) int {
		if c := sortCompare(s.keys, len(s.types), laneRow{buf, i}, laneRow{buf, j}, laneAt); c != 0 {
			return c
		}
		return i - j
	})
	out := s.spare.get(ctx, s.types)
	for c := range out.Vecs {
		out.Vecs[c].Gather(&buf.Vecs[c], perm[:n], nil, n)
	}
	out.SetRows(n, nil)
	s.buf.ColBatch, s.spare.ColBatch = out, buf
	return out
}

// laneRow is row i of batch b, as sortCompare reads it.
type laneRow struct {
	b *datum.ColBatch
	i int
}

func laneAt(r laneRow, slot int) datum.Value { return r.b.Vecs[slot].ValueAt(r.i) }

func rowAt(r datum.Row, slot int) datum.Value { return r[slot] }

// sortRowLess is sortCompare over rows, as the GATHER sorted merge
// compares the heads of its workers' runs.
func sortRowLess(keys []plan.SortKey, a, b datum.Row) bool {
	return sortCompare(keys, min(len(a), len(b)), a, b, rowAt) < 0
}

// sortCompare is the total order shared by SORT and the GATHER sorted
// merge, over two rows w slots wide whose slots at reads: the declared
// keys first, then every slot as a tiebreak. The tiebreak makes the
// order a function of row content alone, so a DOP=4 merge of per-worker
// sorted runs reproduces exactly the DOP=1 ordering even among
// equal-key rows.
func sortCompare[R any](keys []plan.SortKey, w int, a, b R, at func(R, int) datum.Value) int {
	for _, k := range keys {
		c := datum.SortCompare(at(a, k.Slot), at(b, k.Slot))
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	for i := range w {
		if c := datum.SortCompare(at(a, i), at(b, i)); c != 0 {
			return c
		}
	}
	return 0
}

func (s *sortOp) Close(ctx *Ctx) error {
	s.drop()
	s.buf.empty()
	s.spare.empty()
	s.mem.release(ctx)
	return nil
}

// ---------------------------------------------------------------------
// Joins. The join method (nested-loop, hash, merge) is the control
// structure; the join kind (regular, leftouter, ...) is the function
// performed, passed as a parameter — section 7's separation. The
// nested-loop method is the apply operator (subquery.go), shared with
// the subquery kinds.

type mergeJoinOp struct {
	left, right  Stream
	lKeys, rKeys []int
	pred         expr.Expr

	lRows, rRows []datum.Row
	li, rj       int
	group        []datum.Row // right rows matching current left key
	gi           int
	lRow         datum.Row
	mem          memCharge
}

func (b *Builder) buildMergeJoin(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	l, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	r, err := b.Build(n.Inputs[1], corr)
	if err != nil {
		return nil, err
	}
	env := envFromCols(n.Cols, corr)
	pred, err := env.bind(n.JoinPred)
	if err != nil {
		return nil, err
	}
	return &mergeJoinOp{left: l, right: r, lKeys: n.EquiLeft, rKeys: n.EquiRight, pred: pred}, nil
}

func (j *mergeJoinOp) Open(ctx *Ctx) error {
	var err error
	j.lRows, err = materialize(ctx, j.left)
	if err != nil {
		return err
	}
	j.rRows, err = materialize(ctx, j.right)
	if err != nil {
		return err
	}
	j.li, j.rj, j.group, j.gi, j.lRow = 0, 0, nil, 0, nil
	return j.mem.charge(ctx, rowsBytes(j.lRows)+rowsBytes(j.rRows))
}

func (j *mergeJoinOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	ec := ctx.exprCtx()
	for {
		if j.lRow != nil && j.gi < len(j.group) {
			r := j.group[j.gi]
			j.gi++
			out := datum.Concat(j.lRow, r)
			if j.pred != nil {
				v, err := j.pred.Eval(ec, out)
				if err != nil {
					return nil, false, err
				}
				if !datum.TristateOf(v).IsTrue() {
					continue
				}
			}
			return out, true, nil
		}
		// Advance left; rebuild group when the key changes.
		if j.li >= len(j.lRows) {
			return nil, false, nil
		}
		prev := j.lRow
		j.lRow = j.lRows[j.li]
		j.li++
		// NULL join keys never match.
		hasNull := false
		for _, k := range j.lKeys {
			if j.lRow[k].IsNull() {
				hasNull = true
				break
			}
		}
		if hasNull {
			j.group, j.gi = nil, 0
			j.lRow = nil
			continue
		}
		if prev != nil && sameLeftKey(prev, j.lRow, j.lKeys) {
			// Same key as previous left row: reuse the group.
			j.gi = 0
			continue
		}
		// Advance right pointer to the first row >= left key.
		for j.rj < len(j.rRows) && j.keyCmpRight(j.rRows[j.rj]) < 0 {
			j.rj++
		}
		j.group = nil
		for k := j.rj; k < len(j.rRows) && j.keyCmpRight(j.rRows[k]) == 0; k++ {
			j.group = append(j.group, j.rRows[k])
		}
		j.gi = 0
	}
}

// keyCmpRight compares right row keys against the current left row key:
// negative when right < left.
func (j *mergeJoinOp) keyCmpRight(r datum.Row) int {
	for i := range j.lKeys {
		if c := datum.SortCompare(r[j.rKeys[i]], j.lRow[j.lKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// sameLeftKey reports whether two left rows share their join key.
func sameLeftKey(a, b datum.Row, keys []int) bool {
	for _, k := range keys {
		if datum.SortCompare(a[k], b[k]) != 0 {
			return false
		}
	}
	return true
}

// Close closes no input: Open materialized and closed both.
func (j *mergeJoinOp) Close(ctx *Ctx) error {
	j.lRows, j.rRows, j.group = nil, nil, nil
	j.mem.release(ctx)
	return nil
}

// ---------------------------------------------------------------------
// GROUP, DISTINCT, set operations

// groupOp is the hash aggregate, and DISTINCT as GROUP on every column
// with no aggregates. It drains its input's batches inside Open, keying
// each batch's live rows through its hash table (a scalar aggregate
// keys none: every row is group 0), then folds each aggregate over the
// batch — with a typed update kernel where one exists, else through the
// aggregate's own expr.AggState on the row evaluators. The table is the
// output: its key lanes hold the groups in first-seen order, and Open
// fills each aggregate's lane beside them. The input's lifetime ends
// inside Open on every path; the table and the aggregate state stay
// with the operator across executions.
type groupOp struct {
	input     ColBatchStream
	groupCols []int
	types     []datum.TypeID // the output's: the keys', then the aggregates'
	aggs      []batchAgg
	groups    tableHold
	zeros     []int // a scalar aggregate's group ids
	window
	mem memCharge
}

// batchAgg is one aggregate's state across every group, indexed by
// group id: a colAgg kernel or a rowAgg.
type batchAgg interface {
	reset()
	// grow ensures state exists for n groups.
	grow(n int)
	// update folds every live row of b into the group named by the
	// parallel gis slice (one group id per live row, in live order).
	update(ctx *Ctx, b *datum.ColBatch, gis []int) error
	result(gi int) datum.Value
}

// buildGroup builds GROUP and DISTINCT nodes.
func (b *Builder) buildGroup(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	env := envFromCols(n.Inputs[0].Cols, corr)
	aggs := make([]batchAgg, len(n.Aggs))
	for i, a := range n.Aggs {
		arg, err := env.bind(a.Arg)
		if err != nil {
			return nil, err
		}
		if c, ok := asBoundCol(arg); ok && b.vec && !a.Distinct {
			if ca, ok := newColAgg(a.Name, c.Slot); ok {
				aggs[i] = ca
				continue
			}
		}
		aggs[i] = &rowAgg{call: a, arg: arg, scratch: make(datum.Row, len(n.Inputs[0].Cols))}
	}
	types := slotTypes(n.Inputs[0])
	g := &groupOp{input: asColBatchStream(in, types), groupCols: n.GroupCols, types: slotTypes(n), aggs: aggs}
	if n.Op == plan.OpDistinct {
		g.groupCols = seq(len(types))
	}
	return g, nil
}

func (g *groupOp) Open(ctx *Ctx) error {
	g.empty()
	t, w := g.groups.get(ctx, g.types, len(g.groupCols)), len(g.groupCols)
	if w == 0 { // a scalar aggregate: one group, rows or none
		t.rows.SetRows(1, nil)
		for _, a := range g.aggs {
			a.grow(1)
		}
	}
	err := drainBatches(ctx, g.input, false, func(b *datum.ColBatch) error {
		return g.update(ctx, b)
	})
	if err != nil {
		return err
	}
	for k, a := range g.aggs {
		for gi := range t.len() {
			t.rows.Vecs[w+k].AppendValue(a.result(gi))
		}
	}
	t.bytes = t.rows.MemBytes(0) + 12*int64(len(t.hashes))
	g.serve(&t.rows, 0, t.len())
	return g.charge(ctx)
}

// update keys b's live rows and folds them into the aggregates.
func (g *groupOp) update(ctx *Ctx, b *datum.ColBatch) error {
	var gis []int
	if len(g.groupCols) > 0 {
		gis = g.groups.ids(b, g.groupCols)
		for _, a := range g.aggs {
			a.grow(g.groups.len())
		}
	} else {
		g.zeros = slices.Grow(g.zeros[:0], b.NumLive())[:b.NumLive()] // never written: group 0
		gis = g.zeros
	}
	for _, a := range g.aggs {
		if err := a.update(ctx, b, gis); err != nil {
			return err
		}
	}
	return g.charge(ctx)
}

// charge reserves the hash tables, DISTINCT aggregates' too.
func (g *groupOp) charge(ctx *Ctx) error {
	b := g.groups.memBytes()
	for _, a := range g.aggs {
		if ra, ok := a.(*rowAgg); ok {
			b += ra.seen.memBytes()
		}
	}
	return g.mem.charge(ctx, b)
}

// empty drops the previous execution's groups, keeping the capacity
// that held them.
func (g *groupOp) empty() {
	g.groups.empty()
	g.drop()
	for _, a := range g.aggs {
		a.reset()
	}
}

func (g *groupOp) Close(ctx *Ctx) error {
	g.empty()
	g.mem.release(ctx)
	return nil
}

// rowAgg is an aggregate no kernel covers — a DBC aggregate, a DISTINCT
// one, or any aggregate of a kernels-off build: one expr.AggState per
// group, fed the argument's value for each live row by the row
// evaluator over the scratch row. A DISTINCT one folds each (group id,
// value) pair once: seen numbers the pairs it has folded.
type rowAgg struct {
	call    *expr.AggCall
	arg     expr.Expr
	scratch datum.Row
	states  []expr.AggState
	seen    tableHold
	pair    datum.Row
}

// seenTypes are the lanes of a DISTINCT aggregate's (group id, value)
// pairs: the values' are boxed, since any type may arrive.
var seenTypes = []datum.TypeID{datum.TInt, datum.TNull}

func (a *rowAgg) reset() {
	a.states = nil
	a.seen.empty()
}

func (a *rowAgg) grow(n int) {
	for len(a.states) < n {
		a.states = append(a.states, a.call.Fn.NewState())
	}
}

func (a *rowAgg) update(ctx *Ctx, b *datum.ColBatch, gis []int) error {
	if a.call.Distinct && a.pair == nil {
		a.pair = make(datum.Row, 2)
	}
	ec, j := ctx.exprCtx(), 0
	return b.EachLive(func(i int) error {
		gi := gis[j]
		j++
		v, err := a.arg.Eval(ec, loadRow(a.scratch, b, i))
		if err != nil {
			return err
		}
		if a.call.Distinct {
			seen := a.seen.get(ctx, seenTypes, len(seenTypes))
			n := seen.len()
			a.pair[0], a.pair[1] = datum.NewInt(int64(gi)), v
			if seen.rowID(a.pair) < n {
				return nil
			}
		}
		return a.states[gi].Add(v)
	})
}

func (a *rowAgg) result(gi int) datum.Value { return a.states[gi].Result() }

// setOp implements UNION / INTERSECT / EXCEPT with ALL (bag) and
// DISTINCT (set) semantics, draining its inputs by batch and keying
// their rows through one hash table, and TEMP, a UNION ALL of one
// input. UNION ALL emits the batch it drains its inputs into, UNION the
// table's lanes; INTERSECT and EXCEPT (binary) hold the left input's
// batch and emit the rows a selection over it keeps. Every Open drains
// afresh: an input may depend on per-execution state (an enclosing
// subquery's correlation values, a fixpoint iteration's delta).
type setOp struct {
	op     string
	all    bool
	inputs []ColBatchStream
	types  []datum.TypeID
	keys   tableHold
	held   batchHold
	counts []int
	window
	mem memCharge
}

func (b *Builder) buildSetOp(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	if (n.Op == plan.OpInter || n.Op == plan.OpExcept) && len(n.Inputs) != 2 {
		return nil, fmt.Errorf("exec: %s takes 2 inputs, not %d", n.Op, len(n.Inputs))
	}
	ins, err := b.buildInputs(n, corr)
	if err != nil {
		return nil, err
	}
	s := &setOp{op: n.Op, all: n.All, types: slotTypes(n)}
	for _, in := range ins {
		s.inputs = append(s.inputs, asColBatchStream(in, s.types))
	}
	return s, nil
}

func (s *setOp) Open(ctx *Ctx) error {
	s.drop()
	s.keys.empty()
	if s.op == plan.OpUnion && !s.all {
		keys := s.keys.get(ctx, s.types, len(s.types))
		for _, in := range s.inputs {
			if err := drainBatches(ctx, in, true, func(b *datum.ColBatch) error {
				keys.ids(b, keys.keys)
				return nil
			}); err != nil {
				return err
			}
		}
		s.serve(&keys.rows, 0, keys.len())
		return s.mem.charge(ctx, keys.memBytes())
	}
	held := s.held.get(ctx, s.types)
	for i, in := range s.inputs {
		if i > 0 && s.op != plan.OpUnion {
			return s.match(ctx, held, in)
		}
		if err := drainBatches(ctx, in, true, func(b *datum.ColBatch) error {
			held.AppendLive(b)
			return nil
		}); err != nil {
			return err
		}
	}
	s.serve(held, 0, held.Len())
	return s.mem.charge(ctx, held.MemBytes(0))
}

// match counts the right input's rows per key, then selects the left
// rows that INTERSECT or EXCEPT keeps, in left order. A left key the
// right lacks counts 0, so its later copies find no match either.
func (s *setOp) match(ctx *Ctx, left *datum.ColBatch, right ColBatchStream) error {
	keys := s.keys.get(ctx, s.types, len(s.types))
	s.counts = s.counts[:0]
	clear(s.counts[:cap(s.counts)]) // so that growing within it adds zeros
	err := drainBatches(ctx, right, true, func(b *datum.ColBatch) error {
		ids := keys.ids(b, keys.keys)
		s.counts = slices.Grow(s.counts, keys.len()-len(s.counts))[:keys.len()]
		for _, id := range ids {
			s.counts[id]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	ids, inter, kept := keys.ids(left, keys.keys), s.op == plan.OpInter, left.SelBuf()
	s.counts = slices.Grow(s.counts, keys.len()-len(s.counts))[:keys.len()]
	for k, id := range ids {
		matched := s.counts[id] > 0
		switch {
		case matched && s.all:
			s.counts[id]-- // one right row matches one left row
		case matched && inter:
			s.counts[id] = 0 // later copies find no match
		case !matched && !s.all && !inter:
			s.counts[id] = 1 // later copies match the row kept
		}
		if matched == inter {
			kept = append(kept, k)
		}
	}
	left.Sel = kept
	s.serve(left, 0, len(kept))
	return s.mem.charge(ctx, left.MemBytes(0)+keys.memBytes())
}

func (s *setOp) Close(ctx *Ctx) error {
	s.drop()
	s.keys.empty()
	s.held.empty()
	s.mem.release(ctx)
	return nil
}

// ---------------------------------------------------------------------
// VALUES, TABLEFN

type valuesOp struct {
	rows [][]expr.Expr
	pos  int
}

func (b *Builder) buildValues(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	env := envFromCols(nil, corr)
	rows := make([][]expr.Expr, len(n.Rows))
	for i, r := range n.Rows {
		br, err := env.bindAll(r)
		if err != nil {
			return nil, err
		}
		rows[i] = br
	}
	return &valuesOp{rows: rows}, nil
}

func (v *valuesOp) Open(ctx *Ctx) error {
	v.pos = 0
	return nil
}

func (v *valuesOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	es := v.rows[v.pos]
	v.pos++
	out := make(datum.Row, len(es))
	ec := ctx.exprCtx()
	for i, e := range es {
		val, err := e.Eval(ec, nil)
		if err != nil {
			return nil, false, err
		}
		out[i] = val
	}
	return out, true, nil
}

func (v *valuesOp) Close(ctx *Ctx) error { return nil }

// tableFnOp is TABLEFN: Open materializes its inputs, calls the
// function, and copies the rows it returns into a held batch, which the
// window serves.
type tableFnOp struct {
	fn     *expr.TableFunc
	args   []expr.Expr
	inputs []Stream
	inCols [][]expr.ColumnDef
	types  []datum.TypeID

	held batchHold
	window
	mem memCharge
}

func (b *Builder) buildTableFn(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	ins, err := b.buildInputs(n, corr)
	if err != nil {
		return nil, err
	}
	var inCols [][]expr.ColumnDef
	for _, c := range n.Inputs {
		var defs []expr.ColumnDef
		for i, cr := range c.Cols {
			defs = append(defs, expr.ColumnDef{Name: fmt.Sprintf("C%d_%d", cr.QID, i), Type: c.Types[i]})
		}
		inCols = append(inCols, defs)
	}
	env := envFromCols(nil, corr)
	args, err := env.bindAll(n.TFArgs)
	if err != nil {
		return nil, err
	}
	return &tableFnOp{fn: n.TableFn, args: args, inputs: ins, inCols: inCols, types: slotTypes(n)}, nil
}

func (t *tableFnOp) Open(ctx *Ctx) error {
	t.drop()
	var rels []*expr.Relation
	for i, in := range t.inputs {
		rows, err := materialize(ctx, in)
		if err != nil {
			return err
		}
		rels = append(rels, &expr.Relation{Cols: t.inCols[i], Rows: rows})
	}
	var scalars []datum.Value
	ec := ctx.exprCtx()
	for _, a := range t.args {
		v, err := a.Eval(ec, nil)
		if err != nil {
			return err
		}
		scalars = append(scalars, v)
	}
	out, err := t.fn.Eval(rels, scalars)
	if err != nil {
		return err
	}
	held := t.held.get(ctx, t.types)
	for _, r := range out.Rows {
		if len(r) != len(t.types) {
			return fmt.Errorf("exec: table function %s returned a row of %d columns, want %d", t.fn.Name, len(r), len(t.types))
		}
		held.AppendRow(r)
	}
	t.serve(held, 0, held.Len())
	return t.mem.charge(ctx, held.MemBytes(0))
}

func (t *tableFnOp) Close(ctx *Ctx) error {
	t.drop()
	t.held.empty()
	t.mem.release(ctx)
	return nil
}

// ---------------------------------------------------------------------
// CHOOSE: the runtime form of the rewrite phase's CHOOSE operation
// (section 5): alternatives guarded by predicates over host-language
// parameters; the first alternative whose guard holds at Open is
// executed, the last is the default.

type chooseOp struct {
	alts   []ColBatchStream
	conds  []expr.Expr
	active ColBatchStream
}

func (b *Builder) buildChoose(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	alts, err := b.buildInputs(n, corr)
	if err != nil {
		return nil, err
	}
	env := envFromCols(nil, corr)
	conds, err := env.bindAll(n.Exprs)
	if err != nil {
		return nil, err
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	c := &chooseOp{conds: conds}
	for i, alt := range alts {
		c.alts = append(c.alts, asColBatchStream(alt, slotTypes(n.Inputs[i])))
	}
	return c, nil
}

func (c *chooseOp) Open(ctx *Ctx) error {
	c.active = c.alts[len(c.alts)-1] // default: last alternative
	ec := ctx.exprCtx()
	for i, alt := range c.alts {
		if i >= len(c.conds) || c.conds[i] == nil {
			continue
		}
		v, err := c.conds[i].Eval(ec, nil)
		if err != nil {
			return err
		}
		if datum.TristateOf(v).IsTrue() {
			c.active = alt
			break
		}
	}
	return c.active.Open(ctx)
}

// NextColBatch forwards the chosen alternative's batches, and Next its
// rows: a consumer pulls through one of the two.
func (c *chooseOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	return c.active.NextColBatch(ctx)
}

func (c *chooseOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return c.active.Next(ctx)
}

func (c *chooseOp) Close(ctx *Ctx) error {
	if c.active != nil {
		return c.active.Close(ctx)
	}
	return nil
}
