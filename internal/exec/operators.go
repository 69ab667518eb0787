package exec

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
)

// indexKeyOf projects a row onto an index's key columns.
func indexKeyOf(row datum.Row, cols []int) datum.Row {
	k := make(datum.Row, len(cols))
	for i, c := range cols {
		k[i] = row[c]
	}
	return k
}

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

type indexScanOp struct {
	rel     storage.Relation
	tv      *txn.TableVersions
	at      storage.Attachment
	keyCols []int
	lo, hi  []expr.Expr
	preds   []expr.Expr
	it      storage.EntryIterator
	// Open evaluates the bounds into loKey/hiKey, which live with the tree.
	loKey, hiKey datum.Row
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
		at: n.Index.At, keyCols: n.Index.KeyCols,
		lo: lo, hi: hi, preds: preds,
		loKey: make(datum.Row, len(lo)), hiKey: make(datum.Row, len(hi)),
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
	s.it = s.at.Search(lo, hi)
	return nil
}

func (s *indexScanOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	for {
		e, ok := s.it.Next()
		if !ok {
			return nil, false, storage.IterErr(s.it)
		}
		if err := ctx.tick(); err != nil {
			return nil, false, err
		}
		row, inFlux, live := s.tv.Fetch(s.rel, e.RID, ctx.Snap)
		if !live {
			continue // entry for a deleted record, or for a row this snapshot does not see
		}
		// A row in flux may be linked under several keys (its current one
		// plus stale old keys); only the entry matching the visible
		// image's key yields the row, so each visible row surfaces
		// exactly once.
		if inFlux && storage.CompareKeys(indexKeyOf(row, s.keyCols), e.Key) != 0 {
			continue
		}
		match, err := evalPreds(ctx, s.preds, row)
		if err != nil {
			return nil, false, err
		}
		if match {
			return row, true, nil
		}
	}
}

func (s *indexScanOp) Close(ctx *Ctx) error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
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

type limitOp struct {
	input Stream
	nExpr expr.Expr
	left  int64
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
	return &limitOp{input: in, nExpr: ne}, nil
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
	if l.left, err = evalLimit(ctx, l.nExpr); err != nil {
		return err
	}
	return l.input.Open(ctx)
}

func (l *limitOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if l.left <= 0 {
		return nil, false, nil
	}
	row, ok, err := l.input.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	l.left--
	if l.left <= 0 {
		// Quota filled: tell the rest of the statement no more rows are
		// needed, so parallel scan workers stop draining their morsels.
		ctx.signalDone()
	}
	return row, true, nil
}

func (l *limitOp) Close(ctx *Ctx) error { return l.input.Close(ctx) }

// rowCursor is the read position over rows materialized at Open; SORT
// and TABLEFN embed it as their Next.
type rowCursor struct {
	rows []datum.Row
	pos  int
}

// reset points the cursor at the start of rows.
func (c *rowCursor) reset(rows []datum.Row) { c.rows, c.pos = rows, 0 }

func (c *rowCursor) Next(*Ctx) (datum.Row, bool, error) {
	if c.pos >= len(c.rows) {
		return nil, false, nil
	}
	r := c.rows[c.pos]
	c.pos++
	return r, true, nil
}

// ---------------------------------------------------------------------
// SORT

type sortOp struct {
	rowCursor
	input Stream
	types []datum.TypeID
	keys  []plan.SortKey
	// limit is the bound of a LIMIT directly above, nil under any other
	// parent; with it, Open is a top-N (see openTopN), whose heap and
	// scratch row the operator keeps across executions.
	limit   expr.Expr
	top     topHeap
	scratch datum.Row
	mem     memCharge
}

func (b *Builder) buildSort(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	return &sortOp{input: in, types: slotTypes(n.Inputs[0]), keys: n.SortKeys}, nil
}

func (s *sortOp) Open(ctx *Ctx) error {
	if s.limit != nil {
		return s.openTopN(ctx)
	}
	rows, err := materialize(ctx, s.input)
	if err != nil {
		return err
	}
	if err := s.mem.charge(ctx, rowsBytes(rows)); err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return sortRowLess(s.keys, rows[i], rows[j])
	})
	s.reset(rows)
	return nil
}

// openTopN is SORT under LIMIT k. It drains the input's batches through
// a heap of the k least rows so far, so only the rows LIMIT returns are
// copied out of the heap, into one result block, and charged to the
// memory budget. It produces exactly the first k rows of the stable full
// sort: a row enters a full heap only if it sorts strictly before the
// heap's worst, and kept rows that tie break by arrival.
func (s *sortOp) openTopN(ctx *Ctx) error {
	k, err := evalLimit(ctx, s.limit)
	if err != nil {
		return err
	}
	h := &s.top
	h.start(s.keys, int(max(k, 0)), len(s.types))
	if s.scratch == nil {
		s.scratch = make(datum.Row, len(s.types))
	}
	err = drainBatches(ctx, asColBatchStream(s.input, s.types), false, func(b *datum.ColBatch) error {
		return b.EachLive(func(i int) error {
			h.offer(loadRow(s.scratch, b, i))
			return nil
		})
	})
	if err != nil {
		return err
	}
	rows := h.sorted()
	if err := s.mem.charge(ctx, rowsBytes(rows)); err != nil {
		return err
	}
	s.reset(rows)
	return nil
}

// topHeap holds the k least rows offered so far under sortRowLess, ties
// broken by arrival, in an arena it keeps across executions. Once k rows
// are kept it is a container/heap ordered worst-first, so the root is
// the row the next better one replaces.
type topHeap struct {
	keys  []plan.SortKey
	k, w  int
	ents  []topEntry
	seq   int
	arena []datum.Value
}

// topEntry is a kept row: the one at arena[off:off+w].
type topEntry struct {
	off, seq int
}

// start empties the heap for k rows w values wide.
func (h *topHeap) start(keys []plan.SortKey, k, w int) {
	clear(h.arena)
	h.keys, h.k, h.w, h.seq = keys, k, w, 0
	h.ents, h.arena = h.ents[:0], h.arena[:0]
}

func (h *topHeap) row(e topEntry) datum.Row { return h.arena[e.off : e.off+h.w] }

func (h *topHeap) less(a, b topEntry) bool {
	ra, rb := h.row(a), h.row(b)
	if sortRowLess(h.keys, ra, rb) {
		return true
	}
	return !sortRowLess(h.keys, rb, ra) && a.seq < b.seq
}

func (h *topHeap) Len() int           { return len(h.ents) }
func (h *topHeap) Less(i, j int) bool { return h.less(h.ents[j], h.ents[i]) }
func (h *topHeap) Swap(i, j int)      { h.ents[i], h.ents[j] = h.ents[j], h.ents[i] }

// Push and Pop are never called: entries are appended before heap.Init,
// and a replacement overwrites the root and calls heap.Fix.
func (h *topHeap) Push(any) {}
func (h *topHeap) Pop() any { return nil }

// offer considers row, which the caller reuses: a row that is kept is
// copied into the arena.
func (h *topHeap) offer(row datum.Row) {
	h.seq++
	if len(h.ents) < h.k {
		h.ents = append(h.ents, topEntry{off: len(h.arena), seq: h.seq})
		h.arena = append(h.arena, row...)
		if len(h.ents) == h.k {
			heap.Init(h)
		}
		return
	}
	if h.k == 0 || !sortRowLess(h.keys, row, h.row(h.ents[0])) {
		return
	}
	copy(h.row(h.ents[0]), row)
	h.ents[0].seq = h.seq
	heap.Fix(h, 0)
}

// sorted returns the kept rows in order, copied into one block: sorting
// by Less puts the worst first, so the block fills from its end.
func (h *topHeap) sorted() []datum.Row {
	sort.Sort(h)
	n := len(h.ents)
	rows, vals := make([]datum.Row, n), make([]datum.Value, n*h.w)
	for i, e := range h.ents {
		r := vals[(n-1-i)*h.w : (n-i)*h.w : (n-i)*h.w]
		copy(r, h.row(e))
		rows[n-1-i] = r
	}
	return rows
}

// sortRowLess is the total order shared by SORT and the GATHER sorted
// merge: the declared keys first, then every remaining slot as a
// tiebreak. The tiebreak makes the order a function of row content
// alone, so a DOP=4 merge of per-worker sorted runs reproduces exactly
// the DOP=1 ordering even among equal-key rows.
func sortRowLess(keys []plan.SortKey, a, b datum.Row) bool {
	for _, k := range keys {
		c := datum.SortCompare(a[k.Slot], b[k.Slot])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	for i := range a {
		if i >= len(b) {
			break
		}
		if c := datum.SortCompare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

func (s *sortOp) Close(ctx *Ctx) error {
	s.rows = nil
	clear(s.top.arena)
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

type tableFnOp struct {
	fn     *expr.TableFunc
	args   []expr.Expr
	inputs []Stream
	inCols [][]expr.ColumnDef

	rowCursor
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
	return &tableFnOp{fn: n.TableFn, args: args, inputs: ins, inCols: inCols}, nil
}

func (t *tableFnOp) Open(ctx *Ctx) error {
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
	t.reset(out.Rows)
	return t.mem.charge(ctx, rowsBytes(t.rows))
}

func (t *tableFnOp) Close(ctx *Ctx) error {
	t.rows = nil
	t.mem.release(ctx)
	return nil
}

// ---------------------------------------------------------------------
// CHOOSE: the runtime form of the rewrite phase's CHOOSE operation
// (section 5): alternatives guarded by predicates over host-language
// parameters; the first alternative whose guard holds at Open is
// executed, the last is the default.

type chooseOp struct {
	alts   []Stream
	conds  []expr.Expr
	active Stream
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
	return &chooseOp{alts: alts, conds: conds}, nil
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

func (c *chooseOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return c.active.Next(ctx)
}

func (c *chooseOp) Close(ctx *Ctx) error {
	if c.active != nil {
		return c.active.Close(ctx)
	}
	return nil
}
