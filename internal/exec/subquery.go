package exec

import (
	"errors"
	"fmt"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------
// Apply: the nested-loop join method of section 7. For each outer row
// an inner runner yields the inner result under that row's correlation
// vector, and the node's join kind — a parameter, not a control
// structure — says what to make of it. Every NLJN (regular, leftouter)
// and SUBQ (lateral, scalar-subquery, exists, op-all, custom set
// predicate) node builds an applyOp.

type applyOp struct {
	outer Stream
	run   *innerRunner
	// preds are evaluated over the outer row followed by one inner row.
	preds []expr.Expr
	// fold, when it has a set predicate, makes this a set-predicate
	// apply (exists, op-all, custom): the outer row passes when preds,
	// folded over its inner result, are true. Otherwise the apply emits
	// outer++inner pairs.
	fold setFold
	// scalar admits at most one inner row; leftOuter pads an outer row
	// no inner row matched with nulls.
	scalar, leftOuter bool
	nulls             datum.Row
	// prefetch runs the inner at Open: an uncorrelated NLJN's inner is
	// a join input, materialized with the join rather than on demand.
	prefetch bool

	// While pairing: the outer row, its inner result, the next inner row
	// and whether any matched. both is the row the predicates read: the
	// outer row, then one inner row in its tail.
	pairing bool
	row     datum.Row
	inner   []datum.Row
	ri      int
	matched bool
	both    datum.Row
}

func (b *Builder) buildApply(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	outer, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	a := &applyOp{outer: outer, leftOuter: n.JoinKind == plan.KindLeftOuter}
	preds, predCols := n.Preds, n.Cols
	if n.Op == plan.OpNLJoin {
		a.prefetch = len(n.CorrCols) == 0
		preds = nil
		if n.JoinPred != nil {
			preds = []expr.Expr{n.JoinPred}
		}
	} else {
		// Linking predicates see the outer slots, then the inner slots
		// relabeled as the quantifier's columns.
		predCols = append([]plan.ColRef(nil), n.Inputs[0].Cols...)
		for i := range n.Inputs[1].Cols {
			predCols = append(predCols, plan.ColRef{QID: n.QID, Ord: i})
		}
		switch n.JoinKind {
		case plan.KindLateral:
		case plan.KindScalarSub:
			a.scalar, a.leftOuter = true, true
		default:
			// exists, op-all and custom quantifiers: the quantifier's set
			// predicate function folds the linking predicates' truth
			// values over the subquery's elements.
			name := n.SetPred
			if name == "" {
				name = "ANY"
			}
			sp := b.cat.Funcs.SetPredicate(name)
			if sp == nil {
				return nil, fmt.Errorf("exec: unknown set predicate %s", name)
			}
			a.fold = setFold{sp: sp, negated: n.Negated}
		}
	}
	inner, err := b.Build(n.Inputs[1], innerCorr(n.CorrCols, corr))
	if err != nil {
		return nil, err
	}
	// The correlation columns resolve against the outer row (or the
	// enclosing correlation).
	if a.run, err = newInnerRunner(inner, n.CorrCols, envFromCols(n.Inputs[0].Cols, corr)); err != nil {
		return nil, err
	}
	if a.preds, err = envFromCols(predCols, corr).bindAll(preds); err != nil {
		return nil, err
	}
	if a.leftOuter {
		a.nulls = make(datum.Row, len(n.Inputs[1].Cols))
		for i := range a.nulls {
			a.nulls[i] = datum.Null
		}
	}
	return a, nil
}

func (a *applyOp) Open(ctx *Ctx) error {
	a.pairing, a.row, a.inner = false, nil, nil
	a.run.reset(ctx)
	if err := a.outer.Open(ctx); err != nil {
		return err
	}
	if a.prefetch {
		_, err := a.run.rows(ctx, nil)
		return err
	}
	return nil
}

func (a *applyOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	for {
		for a.pairing && a.ri < len(a.inner) {
			r := a.inner[a.ri]
			a.ri++
			// Every considered pair is a work unit: a cross join must be
			// cancellable even when the predicates reject everything.
			if err := ctx.tick(); err != nil {
				return nil, false, err
			}
			a.both = append(a.both[:len(a.row)], r...)
			match, err := evalPreds(ctx, a.preds, a.both)
			if err != nil {
				return nil, false, err
			}
			if match {
				a.matched = true
				return a.both.Clone(), true, nil
			}
		}
		if a.pairing {
			a.pairing = false
			if a.leftOuter && !a.matched {
				return datum.Concat(a.row, a.nulls), true, nil
			}
		}
		row, ok, err := a.outer.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		inner, err := a.run.rows(ctx, row)
		if err != nil {
			return nil, false, err
		}
		if a.fold.sp != nil {
			t, err := a.fold.eval(ctx, a.preds, &a.both, row, inner)
			if err != nil {
				return nil, false, err
			}
			if t.IsTrue() {
				return row, true, nil
			}
			continue
		}
		if a.scalar {
			if err := scalarRows(inner); err != nil {
				return nil, false, err
			}
		}
		a.row, a.inner, a.ri, a.matched, a.pairing = row, inner, 0, false, true
		a.both = append(a.both[:0], row...)
	}
}

// Close leaves the inner alone: every run of it closes it (materialize).
func (a *applyOp) Close(ctx *Ctx) error {
	a.pairing, a.row, a.inner = false, nil, nil
	a.run.reset(ctx)
	return a.outer.Close(ctx)
}

// scalarRows is the scalar subquery's rule: at most one inner row.
func scalarRows(inner []datum.Row) error {
	if len(inner) > 1 {
		return fmt.Errorf("exec: scalar subquery returned %d rows", len(inner))
	}
	return nil
}

// setFold is a set predicate function (section 2) applied to an inner
// result, its verdict negated or not.
type setFold struct {
	sp      *expr.SetPredicateFunc
	negated bool
}

// eval folds inner: an inner row's truth value is the conjunction of
// preds evaluated over *both, refilled with prefix and then that row.
// Each folded row is a work tick: the fold walks a materialized
// (perhaps cached) result, and without its own tick a huge one would
// be uncancellable.
func (f setFold) eval(ctx *Ctx, preds []expr.Expr, both *datum.Row, prefix datum.Row, inner []datum.Row) (datum.Tristate, error) {
	ec := ctx.exprCtx()
	st := f.sp.NewState()
	row := append((*both)[:0], prefix...)
	for _, ir := range inner {
		if err := ctx.tick(); err != nil {
			return datum.Unknown, err
		}
		row = append(row[:len(prefix)], ir...)
		t := datum.True
		for _, p := range preds {
			v, err := p.Eval(ec, row)
			if err != nil {
				return datum.Unknown, err
			}
			if t = t.And(datum.TristateOf(v)); t == datum.False {
				break
			}
		}
		st.Add(t)
		if st.Decided() {
			break
		}
	}
	*both = row
	res := st.Result()
	if f.negated {
		res = res.Not()
	}
	return res, nil
}

// innerRunner runs an apply's inner plan for one outer row — the
// "evaluate-on-demand" mechanism of section 7: it builds the row's
// correlation vector and runs the inner under it only when no row
// since the last reset had the same vector. Results are cached by
// vector value and charged, with their keys, to the memory budget while
// held. An uncorrelated inner has one result per reset; its lookups are
// not counted.
type innerRunner struct {
	inner Stream
	// corrRefs build the vector over the outer row into vec; results[id]
	// is the result under the vector cache numbers id. The cache's lanes
	// are boxed: the vector's types are the outer rows'.
	corrRefs []expr.Expr
	vec      datum.Row
	types    []datum.TypeID
	cache    tableHold
	results  [][]datum.Row
	// slab holds the cached results, recycled with the cache: they never
	// leave the apply (a fold returns the outer row, pairing a copy).
	slab *rowSlab
	mem  memCharge
	// hits/misses count correlated lookups since execution execID first
	// reached the runner: re-opens within an execution accumulate.
	hits, misses int64
	execID       uint64
}

// maxCachedResults bounds the cache. A full cache is emptied:
// correlation values usually cluster, so that is rare and keeps the
// structure trivial.
const maxCachedResults = 4096

// innerCorr is the correlation environment an inner plan is built
// against: slot i of its vector holds column corrCols[i]. An
// uncorrelated inner keeps the enclosing environment, since its runner
// installs no vector of its own.
func innerCorr(corrCols []plan.ColRef, corr map[plan.ColRef]int) map[plan.ColRef]int {
	if len(corrCols) == 0 {
		return corr
	}
	m := make(map[plan.ColRef]int, len(corrCols))
	for i, cr := range corrCols {
		m[cr] = i
	}
	return m
}

// newInnerRunner binds the correlation columns against outer, the
// environment of the rows the runner is handed.
func newInnerRunner(inner Stream, corrCols []plan.ColRef, outer *bindEnv) (*innerRunner, error) {
	r := &innerRunner{inner: inner, corrRefs: make([]expr.Expr, len(corrCols)),
		vec: make(datum.Row, len(corrCols)), types: make([]datum.TypeID, len(corrCols))}
	for i, cr := range corrCols {
		ref, err := outer.bind(expr.NewCol(cr.QID, cr.Ord, fmt.Sprintf("corr q%d.#%d", cr.QID, cr.Ord), 0))
		if err != nil {
			return nil, err
		}
		r.corrRefs[i] = ref
	}
	return r, nil
}

// rows returns the inner result for an outer row.
func (r *innerRunner) rows(ctx *Ctx, outer datum.Row) ([]datum.Row, error) {
	if r.execID != ctx.execID {
		r.reset(ctx)
	}
	ec := ctx.exprCtx()
	for i, ref := range r.corrRefs {
		v, err := ref.Eval(ec, outer)
		if err != nil {
			return nil, err
		}
		r.vec[i] = v
	}
	correlated := len(r.vec) > 0
	cache := r.cache.get(ctx, r.types, len(r.types))
	n, keyBytes := cache.len(), cache.memBytes()
	if id := cache.rowID(r.vec); id < n {
		if correlated {
			r.hits++
			ctx.sh.subqHits.Add(1)
		}
		return r.results[id], nil
	}
	// A full cache empties before the miss lands in the slab it shares.
	if n >= maxCachedResults {
		r.reset(ctx)
		cache.rowID(r.vec)
		keyBytes = 0
	}
	if r.slab == nil {
		r.slab = slabPool.Get().(*rowSlab)
		ctx.hold(r)
	}
	// Only a correlated inner installs a vector: any other (an NLJN's
	// inside a subquery's inner, say) keeps seeing the enclosing one.
	var saved datum.Row
	if correlated {
		r.misses++
		ctx.sh.subqMisses.Add(1)
		saved = ctx.setCorr(r.vec)
	}
	first := len(r.slab.rows)
	err := r.slab.drain(ctx, r.inner)
	if correlated {
		ctx.setCorr(saved)
	}
	if err != nil {
		// The vector is keyed, its result is not: start over.
		r.reset(ctx)
		return nil, err
	}
	rows := r.slab.rows[first:len(r.slab.rows):len(r.slab.rows)]
	r.results = append(r.results, rows)
	if err := r.mem.add(ctx, rowsBytes(rows)+cache.memBytes()-keyBytes); err != nil {
		return nil, err
	}
	return rows, nil
}

// reset empties the cache and returns its charge. A runner first
// reached by a new execution restarts its counters and drops its charge
// unreturned: it was made against the earlier execution's record.
func (r *innerRunner) reset(ctx *Ctx) {
	if r.execID != ctx.execID {
		r.execID, r.hits, r.misses, r.mem = ctx.execID, 0, 0, memCharge{}
	}
	r.mem.release(ctx)
	r.empty()
}

// empty empties the cache and its slab, keeping their capacity: an idle
// runner pins no value.
func (r *innerRunner) empty() {
	clear(r.results)
	r.results = r.results[:0]
	r.cache.empty()
	if r.slab != nil {
		r.slab.truncate(0, 0)
	}
}

// park empties the runner for an idle tree, dropping a slab that
// outgrew maxParkedBytes.
func (r *innerRunner) park() bool {
	r.empty()
	if r.slab.keep() {
		return true
	}
	r.slab = nil
	return false
}

func (r *innerRunner) releasePooled() {
	r.empty()
	slabPool.Put(r.slab)
	r.slab = nil
}

// ---------------------------------------------------------------------
// Deferred subplans (OR-of-subquery predicates): refineSubplans installs
// Run closures on expr.Subplan nodes, completing the paper's OR-operator
// machinery — each disjunct's subquery is evaluated on demand with
// caching, so a tuple rejected by the cheap disjunct is "handed over"
// to the subquery disjunct for further consideration.
func (b *Builder) refineSubplans(exprs []expr.Expr, inputCols []plan.ColRef, corr map[plan.ColRef]int) ([]expr.Expr, error) {
	env := envFromCols(inputCols, corr)
	out := make([]expr.Expr, len(exprs))
	for i, e := range exprs {
		var firstErr error
		out[i] = expr.Transform(e, func(x expr.Expr) expr.Expr {
			sp, ok := x.(*expr.Subplan)
			if !ok {
				return x
			}
			info, ok := sp.Aux.(*plan.SubplanInfo)
			if !ok {
				if firstErr == nil {
					firstErr = fmt.Errorf("exec: subplan %s was not compiled", sp.Label)
				}
				return x
			}
			closure, err := b.subplanClosure(info, env, corr)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return x
			}
			return &expr.Subplan{Label: sp.Label, Typ: sp.Typ, Run: closure}
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return out, nil
}

// subplanClosure binds an expression subplan to the apply machinery:
// one inner runner, and SUBQ's rules for what its result means. SCALAR
// is the scalar subquery's at-most-one rule; EXISTS and IN are both ANY
// folds, IN's over lhs = inner.0 with the lhs value as the fold's
// prefix row.
func (b *Builder) subplanClosure(info *plan.SubplanInfo, env *bindEnv, corr map[plan.ColRef]int) (func(*expr.Context, datum.Row) (datum.Value, error), error) {
	inner, err := b.Build(info.Plan, innerCorr(info.CorrCols, corr))
	if err != nil {
		return nil, err
	}
	run, err := newInnerRunner(inner, info.CorrCols, env)
	if err != nil {
		return nil, err
	}
	fold := setFold{sp: b.cat.Funcs.SetPredicate("ANY"), negated: info.Negated}
	var lhs expr.Expr
	var preds []expr.Expr
	switch info.Mode {
	case "SCALAR", "EXISTS":
	case "IN":
		if lhs, err = env.bind(info.Lhs); err != nil {
			return nil, err
		}
		preds = []expr.Expr{&expr.Cmp{Op: expr.OpEq,
			L: &expr.Col{Slot: 0, Name: "lhs"}, R: &expr.Col{Slot: 1, Name: "inner.0"}}}
	default:
		return nil, fmt.Errorf("exec: unknown subplan mode %s", info.Mode)
	}
	scalar := info.Mode == "SCALAR"
	var prefix, both datum.Row
	return func(ec *expr.Context, outer datum.Row) (datum.Value, error) {
		// Closures run inside expression evaluation; the executor's
		// context rides along in expr.Context.Exec.
		ctx, _ := ec.Exec.(*Ctx)
		if ctx == nil {
			return datum.Null, fmt.Errorf("exec: subplan evaluated outside an execution context")
		}
		rows, err := run.rows(ctx, outer)
		if err != nil {
			return datum.Null, err
		}
		if scalar {
			if err := scalarRows(rows); err != nil || len(rows) == 0 {
				return datum.Null, err
			}
			return rows[0][0], nil
		}
		prefix = prefix[:0]
		if lhs != nil {
			v, err := lhs.Eval(ec, outer)
			if err != nil {
				return datum.Null, err
			}
			prefix = append(prefix, v)
		}
		t, err := fold.eval(ctx, preds, &both, prefix, rows)
		return t.Datum(), err
	}, nil
}

// ---------------------------------------------------------------------
// Recursion: RECUNION computes the fixpoint of its recursive branch,
// RECREF reads the working table. The fixpoint's rows are its seen
// table's lanes, the seed's first. The seed's and each iteration's
// output is drained into a held batch and keyed once its branch has
// closed, so no batch RECREF handed out aliases lanes being appended to.

type recUnionOp struct {
	seed, rec ColBatchStream
	boxID     int
	linear    bool // exactly one RECREF → semi-naive (delta) evaluation
	types     []datum.TypeID
	seen      tableHold
	out       batchHold // an iteration's output
	// RECREF reads rows [lo, hi) of seen: what the last iteration added,
	// or (lo 0) every row so far in a non-linear recursion.
	lo, hi int
	window
	mem memCharge
}

func (b *Builder) buildRecUnion(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	ins, err := b.buildInputs(n, corr)
	if err != nil {
		return nil, err
	}
	// Count recursive references to decide delta vs total evaluation.
	refs := 0
	plan.Walk(n.Inputs[1], func(x *plan.Node) bool {
		if x.Op == plan.OpRecRef && x.RecBoxID == n.RecBoxID {
			refs++
		}
		return true
	})
	types := slotTypes(n)
	return &recUnionOp{seed: asColBatchStream(ins[0], types), rec: asColBatchStream(ins[1], types),
		boxID: n.RecBoxID, linear: refs == 1, types: types}, nil
}

func (r *recUnionOp) Open(ctx *Ctx) error {
	const maxIterations = 1_000_000
	r.drop()
	seen := r.seen.get(ctx, r.types, len(r.types))
	seen.empty()
	if ctx.rec == nil {
		ctx.rec = map[int]*recUnionOp{}
	}
	prev := ctx.rec[r.boxID]
	ctx.rec[r.boxID] = r
	defer func() { ctx.rec[r.boxID] = prev }()
	r.lo, r.hi = 0, 0
	for iter, in := 0, r.seed; ; iter, in = iter+1, r.rec {
		if iter > maxIterations {
			return fmt.Errorf("exec: recursive query exceeded %d iterations", maxIterations)
		}
		out, lo := r.out.get(ctx, r.types), seen.len()
		if err := drainBatches(ctx, in, true, func(b *datum.ColBatch) error {
			out.AppendLive(b)
			return nil
		}); err != nil {
			return err
		}
		seen.ids(out, seen.keys)
		if err := r.mem.charge(ctx, seen.memBytes()+out.MemBytes(0)); err != nil {
			return err
		}
		if seen.len() == lo {
			break
		}
		if r.hi = seen.len(); r.linear {
			r.lo = lo
		}
	}
	r.serve(&seen.rows, 0, seen.len())
	return nil
}

func (r *recUnionOp) Close(ctx *Ctx) error {
	r.drop()
	r.seen.empty()
	r.out.empty()
	r.mem.release(ctx)
	return nil
}

// recRefOp serves its fixpoint's working table; Close is the window's.
type recRefOp struct {
	boxID int
	window
}

func (r *recRefOp) Open(ctx *Ctx) error {
	u := ctx.rec[r.boxID]
	if u == nil {
		return fmt.Errorf("exec: recursive reference outside its fixpoint (box %d)", r.boxID)
	}
	r.serve(&u.seen.rows, u.lo, u.hi)
	return nil
}

// ---------------------------------------------------------------------
// DML executors. Updates and deletes run in two phases (identify, then
// apply) to avoid the Halloween problem of re-visiting freshly updated
// records.

// rollback compensates a failing DML statement back to its entry
// savepoint and counts the rollback (an empty span is not counted:
// nothing was undone). The rest of the transaction's write log is left
// intact — only this statement's writes unwind.
func rollback(ctx *Ctx, mark int) error {
	if ctx.Txn.Writes() > mark {
		ctx.sh.rollbacks.Add(1)
	}
	return ctx.Txn.RollbackTo(ctx.Cat, mark)
}

type insertOp struct {
	src  Stream
	node *plan.Node
	// values are the source's rows when it is a bare VALUES, which
	// insertRow evaluates straight into full: no row is allocated per
	// VALUES row.
	values [][]expr.Expr
	full   datum.Row // the scratch row insertRow fills
	done   bool
}

func (b *Builder) buildInsert(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	src, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	i := &insertOp{src: src, node: n, full: make(datum.Row, len(n.Table.Cols))}
	if v, ok := src.(*valuesOp); ok {
		i.values = v.rows
	}
	return i, nil
}

func (i *insertOp) Open(ctx *Ctx) error {
	i.done = false
	return nil
}

func (i *insertOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if i.done {
		return nil, false, nil
	}
	i.done = true
	t := i.node.Table
	if ctx.Txn == nil {
		return nil, false, fmt.Errorf("exec: INSERT outside a transaction")
	}
	// Any other source is read whole before the first write, so that a
	// source reading the target table never sees the statement's rows.
	var rows []datum.Row
	if i.values == nil {
		var err error
		if rows, err = materialize(ctx, i.src); err != nil {
			return nil, false, err
		}
	}
	// The statement is atomic: every mutation is write-logged, and any
	// error rolls the statement back to its savepoint (heap, version
	// map and indexes).
	mark := ctx.Txn.Mark()
	n := max(len(rows), len(i.values))
	ctx.Txn.Grow(n * (1 + len(t.Indexes)))
	for r := 0; r < n; r++ {
		err := ctx.tick()
		if err == nil {
			err = i.insertRow(ctx, rows, r)
		}
		if err != nil {
			return nil, false, errors.Join(err, rollback(ctx, mark))
		}
	}
	ctx.sh.affected.Add(int64(n))
	return nil, false, nil
}

// insertRow carries source row r, rows[r] or VALUES row r evaluated, to
// InsertTx in the scratch row, which InsertTx coerces in place and
// stores a copy of. A source row is never handed over: the Relation
// contract lets a scan hand out a stored row itself.
func (i *insertOp) insertRow(ctx *Ctx, rows []datum.Row, r int) error {
	for k := range i.full {
		i.full[k] = datum.Null
	}
	for k, ord := range i.node.TargetCols {
		if i.values == nil {
			i.full[ord] = rows[r][k]
			continue
		}
		v, err := i.values[r][k].Eval(ctx.exprCtx(), nil)
		if err != nil {
			return err
		}
		i.full[ord] = v
	}
	_, err := ctx.Cat.InsertTx(i.node.Table, i.full, ctx.Txn)
	return err
}

func (i *insertOp) Close(ctx *Ctx) error { return nil }

type updateDeleteOp struct {
	node  *plan.Node
	cur   tableCursor
	preds []expr.Expr
	exprs []expr.Expr
	isDel bool
	done  bool
}

func (b *Builder) buildUpdateDelete(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	// Predicates and assignment expressions reference the target
	// table's quantifier columns.
	cols := make([]plan.ColRef, len(n.Table.Cols))
	for i := range n.Table.Cols {
		cols[i] = plan.ColRef{QID: n.QID, Ord: i}
	}
	env := envFromCols(cols, corr)
	preds, err := env.bindAll(n.Preds)
	if err != nil {
		return nil, err
	}
	preds, err = b.refineSubplans(preds, cols, corr)
	if err != nil {
		return nil, err
	}
	exprs, err := env.bindAll(n.Exprs)
	if err != nil {
		return nil, err
	}
	exprs, err = b.refineSubplans(exprs, cols, corr)
	if err != nil {
		return nil, err
	}
	return &updateDeleteOp{node: n, cur: b.cursorFor(n), preds: preds, exprs: exprs, isDel: n.Op == plan.OpDelete}, nil
}

func (u *updateDeleteOp) Open(ctx *Ctx) error {
	u.done = false
	return nil
}

func (u *updateDeleteOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if u.done {
		return nil, false, nil
	}
	u.done = true
	t := u.node.Table
	if ctx.Txn == nil {
		return nil, false, fmt.Errorf("exec: %s outside a transaction", map[bool]string{true: "DELETE", false: "UPDATE"}[u.isDel])
	}
	type pending struct {
		rid    storage.RID
		newRow datum.Row
	}
	var work []pending
	u.cur.open()
	defer u.cur.close()
	ec := ctx.exprCtx()
	for {
		row, rid, ok, err := u.cur.next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		match, err := evalPreds(ctx, u.preds, row)
		if err != nil {
			return nil, false, err
		}
		if !match {
			continue
		}
		if u.isDel {
			work = append(work, pending{rid: rid})
			continue
		}
		newRow := row.Clone()
		for k, ord := range u.node.TargetCols {
			v, err := u.exprs[k].Eval(ec, row)
			if err != nil {
				return nil, false, err
			}
			cv, err := datum.Coerce(v, t.Cols[ord].Type)
			if err != nil {
				return nil, false, err
			}
			newRow[ord] = cv
		}
		work = append(work, pending{rid: rid, newRow: newRow})
	}
	// Apply phase, statement-atomic: any error rolls back every mutation
	// already applied, including version and index maintenance.
	mark := ctx.Txn.Mark()
	var affected int64
	for _, w := range work {
		var err error
		if err = ctx.tick(); err == nil {
			if u.isDel {
				err = ctx.Cat.DeleteTx(t, w.rid, ctx.Txn)
			} else {
				err = ctx.Cat.UpdateTx(t, w.rid, w.newRow, ctx.Txn)
			}
		}
		if err != nil {
			return nil, false, errors.Join(err, rollback(ctx, mark))
		}
		affected++
	}
	ctx.sh.affected.Add(affected)
	return nil, false, nil
}

func (u *updateDeleteOp) Close(ctx *Ctx) error { return nil }
