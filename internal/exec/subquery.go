package exec

import (
	"errors"
	"fmt"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// subqCache implements the "evaluate-on-demand" mechanism of section 7:
// subqueries are evaluated only when needed, and re-evaluation is
// avoided when the correlation values have not changed. The cache keys
// materialized inner results by correlation-vector value.
type subqCache struct {
	entries map[string][]datum.Row
	// Hits/Misses are exposed for the evaluate-on-demand experiment.
	Hits, Misses int64
	cap          int
}

func newSubqCache() *subqCache {
	return &subqCache{entries: map[string][]datum.Row{}, cap: 4096}
}

// reset empties the cache and zeroes its counters.
func (c *subqCache) reset() {
	clear(c.entries)
	c.Hits, c.Misses = 0, 0
}

func (c *subqCache) get(key string) ([]datum.Row, bool) {
	r, ok := c.entries[key]
	if ok {
		c.Hits++
	} else {
		c.Misses++
	}
	return r, ok
}

func (c *subqCache) put(key string, rows []datum.Row) {
	if len(c.entries) >= c.cap {
		// Simple reset; correlation values usually cluster, so a full
		// reset is rare and keeps the structure trivial.
		c.entries = map[string][]datum.Row{}
	}
	if rows == nil {
		rows = []datum.Row{}
	}
	c.entries[key] = rows
}

// subplanRunner evaluates an inner plan under a correlation vector,
// caching by correlation value for one execution.
type subplanRunner struct {
	inner  Stream
	cache  *subqCache
	execID uint64
}

func (r *subplanRunner) rows(ctx *Ctx, corr datum.Row) ([]datum.Row, error) {
	if r.execID != ctx.execID {
		r.cache.reset()
		r.execID = ctx.execID
	}
	key := datum.RowKey(corr)
	if rows, ok := r.cache.get(key); ok {
		ctx.SubqHits++
		return rows, nil
	}
	ctx.SubqMisses++
	saved := ctx.setCorr(corr)
	rows, err := materialize(ctx, r.inner)
	ctx.setCorr(saved)
	if err != nil {
		return nil, err
	}
	r.cache.put(key, rows)
	return rows, nil
}

// ---------------------------------------------------------------------
// SUBQ: applies a subquery quantifier to each outer tuple. The join
// kind is a parameter (exists / op-all / scalar-subquery / custom set
// predicates), separated from the (nested-loop) control structure.

type subqOp struct {
	input    Stream
	runner   *subplanRunner
	kind     string
	negated  bool
	setPred  string
	preds    []expr.Expr // evaluated over concat(outer, inner element)
	corrRefs []expr.Expr // evaluated over the outer row
	innerW   int
	builder  *Builder
	setReg   setPredLookup
	// pending buffers multi-row emissions (lateral kind).
	pending []datum.Row
	// both is the set-predicate fold's row: the outer row, then one inner
	// element after another in its tail. The predicates only read it.
	both datum.Row
	// prevHits/prevMisses carry cache totals across the re-opens of one
	// execution (each Open starts an empty cache), so CacheStats is
	// statement-cumulative.
	prevHits, prevMisses int64
	execID               uint64
}

type setPredLookup interface {
	SetPredicate(name string) *expr.SetPredicateFunc
}

func (b *Builder) buildSubq(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	in, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	// The inner plan sees a fresh correlation environment: its vector
	// is built per outer row from CorrCols.
	innerCorr := map[plan.ColRef]int{}
	for i, cr := range n.CorrCols {
		innerCorr[cr] = i
	}
	inner, err := b.Build(n.Inputs[1], innerCorr)
	if err != nil {
		return nil, err
	}
	// CorrCols are resolved against the outer row (or the enclosing
	// correlation).
	outerEnv := envFromCols(n.Inputs[0].Cols, corr)
	corrRefs := make([]expr.Expr, len(n.CorrCols))
	for i, cr := range n.CorrCols {
		ref, err := outerEnv.bind(expr.NewCol(cr.QID, cr.Ord, fmt.Sprintf("corr q%d.#%d", cr.QID, cr.Ord), 0))
		if err != nil {
			return nil, err
		}
		corrRefs[i] = ref
	}
	// Linking predicates see outer slots then inner slots.
	predCols := append(append([]plan.ColRef(nil), n.Inputs[0].Cols...), n.Inputs[1].Cols...)
	// Relabel inner slots as the quantifier's columns.
	for i := range n.Inputs[1].Cols {
		predCols[len(n.Inputs[0].Cols)+i] = plan.ColRef{QID: n.QID, Ord: i}
	}
	predEnv := envFromCols(predCols, corr)
	preds, err := predEnv.bindAll(n.Preds)
	if err != nil {
		return nil, err
	}
	return &subqOp{
		input:    in,
		runner:   &subplanRunner{inner: inner, cache: newSubqCache()},
		kind:     n.JoinKind,
		negated:  n.Negated,
		setPred:  n.SetPred,
		preds:    preds,
		corrRefs: corrRefs,
		innerW:   len(n.Inputs[1].Cols),
		builder:  b,
		setReg:   b.cat.Funcs,
	}, nil
}

func (s *subqOp) Open(ctx *Ctx) error {
	if c := s.runner.cache; s.execID == ctx.execID {
		s.prevHits += c.Hits
		s.prevMisses += c.Misses
	} else {
		s.prevHits, s.prevMisses, s.execID = 0, 0, ctx.execID
	}
	s.runner.cache.reset()
	s.pending = nil
	return s.input.Open(ctx)
}

// CacheStats reports statement-cumulative subquery-cache totals; the
// stats decorator harvests them at Close.
func (s *subqOp) CacheStats() (hits, misses int64) {
	return s.prevHits + s.runner.cache.Hits, s.prevMisses + s.runner.cache.Misses
}

func (s *subqOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	ec := ctx.exprCtx()
	for {
		if len(s.pending) > 0 {
			out := s.pending[0]
			s.pending = s.pending[1:]
			return out, true, nil
		}
		row, ok, err := s.input.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		// Build the correlation vector for this outer tuple.
		corr := make(datum.Row, len(s.corrRefs))
		for i, r := range s.corrRefs {
			v, err := r.Eval(ec, row)
			if err != nil {
				return nil, false, err
			}
			corr[i] = v
		}
		inner, err := s.runner.rows(ctx, corr)
		if err != nil {
			return nil, false, err
		}
		if s.kind == plan.KindLateral {
			// Correlated derived table: emit the concatenation of the
			// outer tuple with every qualifying inner tuple.
			for _, ir := range inner {
				out := datum.Concat(row, ir)
				match, err := evalPreds(ctx, s.preds, out)
				if err != nil {
					return nil, false, err
				}
				if match {
					s.pending = append(s.pending, out)
				}
			}
			continue
		}
		if s.kind == plan.KindScalarSub {
			switch len(inner) {
			case 0:
				nulls := make(datum.Row, s.innerW)
				for i := range nulls {
					nulls[i] = datum.Null
				}
				return datum.Concat(row, nulls), true, nil
			case 1:
				return datum.Concat(row, inner[0]), true, nil
			default:
				return nil, false, fmt.Errorf("exec: scalar subquery returned %d rows", len(inner))
			}
		}
		// Set-predicate fold (exists/op-all/custom): the quantifier's
		// set predicate function folds the linking predicate's truth
		// value over the subquery elements.
		spName := s.setPred
		if spName == "" {
			spName = "ANY"
		}
		sp := s.setReg.SetPredicate(spName)
		if sp == nil {
			return nil, false, fmt.Errorf("exec: unknown set predicate %s", spName)
		}
		st := sp.NewState()
		s.both = append(s.both[:0], row...)
		for _, ir := range inner {
			// The fold walks a pre-materialized slice; without its own
			// tick a huge cached subquery would be uncancellable.
			if err := ctx.tick(); err != nil {
				return nil, false, err
			}
			s.both = append(s.both[:len(row)], ir...)
			t := datum.True
			for _, p := range s.preds {
				v, err := p.Eval(ec, s.both)
				if err != nil {
					return nil, false, err
				}
				t = t.And(datum.TristateOf(v))
				if t == datum.False {
					break
				}
			}
			st.Add(t)
			if st.Decided() {
				break
			}
		}
		res := st.Result()
		if s.negated {
			res = res.Not()
		}
		if res.IsTrue() {
			return row, true, nil
		}
	}
}

func (s *subqOp) Close(ctx *Ctx) error { return s.input.Close(ctx) }

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

func (b *Builder) subplanClosure(info *plan.SubplanInfo, env *bindEnv, corr map[plan.ColRef]int) (func(*expr.Context, datum.Row) (datum.Value, error), error) {
	innerCorr := map[plan.ColRef]int{}
	for i, cr := range info.CorrCols {
		innerCorr[cr] = i
	}
	inner, err := b.Build(info.Plan, innerCorr)
	if err != nil {
		return nil, err
	}
	corrRefs := make([]expr.Expr, len(info.CorrCols))
	for i, cr := range info.CorrCols {
		ref, err := env.bind(expr.NewCol(cr.QID, cr.Ord, "corr", 0))
		if err != nil {
			return nil, err
		}
		corrRefs[i] = ref
	}
	var lhs expr.Expr
	if info.Lhs != nil {
		lhs, err = env.bind(info.Lhs)
		if err != nil {
			return nil, err
		}
	}
	runner := &subplanRunner{inner: inner, cache: newSubqCache()}
	mode, negated := info.Mode, info.Negated
	return func(callerEC *expr.Context, outer datum.Row) (datum.Value, error) {
		// Closures run inside expression evaluation; the executor's
		// context rides along in expr.Context.Exec.
		ctx, _ := callerEC.Exec.(*Ctx)
		if ctx == nil {
			return datum.Null, fmt.Errorf("exec: subplan evaluated outside an execution context")
		}
		ec := callerEC
		cv := make(datum.Row, len(corrRefs))
		for i, r := range corrRefs {
			v, err := r.Eval(ec, outer)
			if err != nil {
				return datum.Null, err
			}
			cv[i] = v
		}
		rows, err := runner.rows(ctx, cv)
		if err != nil {
			return datum.Null, err
		}
		switch mode {
		case "SCALAR":
			switch len(rows) {
			case 0:
				return datum.Null, nil
			case 1:
				return rows[0][0], nil
			default:
				return datum.Null, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
			}
		case "EXISTS":
			res := len(rows) > 0
			if negated {
				res = !res
			}
			return datum.NewBool(res), nil
		case "IN":
			lv, err := lhs.Eval(ec, outer)
			if err != nil {
				return datum.Null, err
			}
			res := datum.False
			for _, r := range rows {
				eq, err := expr.EvalCmp(expr.OpEq, lv, r[0])
				if err != nil {
					return datum.Null, err
				}
				res = res.Or(datum.TristateOf(eq))
				if res == datum.True {
					break
				}
			}
			if negated {
				res = res.Not()
			}
			return res.Datum(), nil
		}
		return datum.Null, fmt.Errorf("exec: unknown subplan mode %s", mode)
	}, nil
}

// ---------------------------------------------------------------------
// Recursion: RECUNION computes the fixpoint of its recursive branches,
// RECREF reads the working table.

type recUnionOp struct {
	seed, rec Stream
	boxID     int
	linear    bool // exactly one RECREF → semi-naive (delta) evaluation

	rowCursor
	mem memCharge
}

func (b *Builder) buildRecUnion(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	seed, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	rec, err := b.Build(n.Inputs[1], corr)
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
	return &recUnionOp{seed: seed, rec: rec, boxID: n.RecBoxID, linear: refs == 1}, nil
}

func (r *recUnionOp) Open(ctx *Ctx) error {
	const maxIterations = 1_000_000
	seen := map[string]bool{}
	var total []datum.Row
	add := func(rows []datum.Row) []datum.Row {
		var fresh []datum.Row
		for _, row := range rows {
			k := datum.RowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
			total = append(total, row)
			fresh = append(fresh, row)
		}
		return fresh
	}
	seedRows, err := materialize(ctx, r.seed)
	if err != nil {
		return err
	}
	delta := add(seedRows)
	if err := r.mem.add(ctx, delta...); err != nil {
		return err
	}
	wt := &recWorkTable{useTotal: !r.linear}
	if ctx.rec == nil {
		ctx.rec = map[int]*recWorkTable{}
	}
	prev := ctx.rec[r.boxID]
	ctx.rec[r.boxID] = wt
	defer func() { ctx.rec[r.boxID] = prev }()

	for iter := 0; len(delta) > 0; iter++ {
		if iter > maxIterations {
			return fmt.Errorf("exec: recursive query exceeded %d iterations", maxIterations)
		}
		wt.delta = delta
		wt.total = total
		rows, err := materialize(ctx, r.rec)
		if err != nil {
			return err
		}
		delta = add(rows)
		if err := r.mem.add(ctx, delta...); err != nil {
			return err
		}
	}
	r.reset(total)
	return nil
}

func (r *recUnionOp) Close(ctx *Ctx) error {
	r.rows = nil
	r.mem.release(ctx)
	return nil
}

type recRefOp struct {
	rowCursor
	boxID int
}

func (r *recRefOp) Open(ctx *Ctx) error {
	wt := ctx.rec[r.boxID]
	if wt == nil {
		return fmt.Errorf("exec: recursive reference outside its fixpoint (box %d)", r.boxID)
	}
	if wt.useTotal {
		r.reset(wt.total)
	} else {
		r.reset(wt.delta)
	}
	return nil
}

func (r *recRefOp) Close(ctx *Ctx) error { return nil }

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
		ctx.Rollbacks++
	}
	return ctx.Txn.RollbackTo(ctx.Cat, mark)
}

type insertOp struct {
	src  Stream
	node *plan.Node
	done bool
}

func (b *Builder) buildInsert(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	src, err := b.Build(n.Inputs[0], corr)
	if err != nil {
		return nil, err
	}
	return &insertOp{src: src, node: n}, nil
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
	rows, err := materialize(ctx, i.src)
	if err != nil {
		return nil, false, err
	}
	t := i.node.Table
	if ctx.Txn == nil {
		return nil, false, fmt.Errorf("exec: INSERT outside a transaction")
	}
	// The statement is atomic: every mutation is write-logged, and any
	// error rolls the statement back to its savepoint (heap, version
	// map and indexes).
	mark := ctx.Txn.Mark()
	var affected int64
	for _, src := range rows {
		if err := ctx.tick(); err != nil {
			return nil, false, errors.Join(err, rollback(ctx, mark))
		}
		full := make(datum.Row, len(t.Cols))
		for k := range full {
			full[k] = datum.Null
		}
		for k, ord := range i.node.TargetCols {
			full[ord] = src[k]
		}
		if _, err := ctx.Cat.InsertTx(t, full, ctx.Txn); err != nil {
			return nil, false, errors.Join(err, rollback(ctx, mark))
		}
		affected++
	}
	ctx.Affected += affected
	return nil, false, nil
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
	ctx.Affected += affected
	return nil, false, nil
}

func (u *updateDeleteOp) Close(ctx *Ctx) error { return nil }
