// Package exec implements Starburst's Query Evaluation System (QES,
// section 7 of the paper): it interprets a query evaluation plan — an
// operator tree in the extended relational algebra — against the
// database. Operators exchange streams of tuples implemented by lazy
// evaluation, keeping intermediate results as small as one tuple; the
// algebraic interface makes adding operators easy and keeps operators
// independent of one another.
package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/txn"
)

// Stream is the tuple-at-a-time iterator interface between operators.
// Open must be callable again after Close: operators are re-runnable
// (the recursive-union fixpoint and correlated inners re-open them
// within one execution, and a parked Tree re-opens its whole tree for
// the next). Open resets every per-execution field. Close ends one
// execution: it may run twice, and it keeps what the operator grew —
// batches, hash tables, aggregate lanes — for the next Open to refill.
type Stream interface {
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (datum.Row, bool, error)
	Close(ctx *Ctx) error
}

// Ctx is the per-execution context.
type Ctx struct {
	Cat *catalog.Catalog
	// Params are host-language variable bindings.
	Params map[string]datum.Value
	// ec is the one expression-evaluation context of this Ctx (see
	// exprCtx). Its Corr is the current correlation vector — the outer-
	// query column values for the subplan being evaluated — and is
	// written only by setCorr.
	ec expr.Context
	// rec holds the active recursive unions, whose working tables RECREF
	// reads, keyed by QGM box id; nil until the first one opens.
	rec map[int]*recUnionOp
	// Snap is the MVCC visibility snapshot every scan resolves row
	// versions against. The zero snapshot sees only frozen rows; the
	// engine always arms a real one.
	Snap txn.Snapshot
	// Txn is the transaction write state DML mutates through; nil for
	// read-only execution.
	Txn *catalog.TxnState

	// goCtx carries cancellation; nil means uncancellable (see Arm).
	goCtx context.Context
	// limits are the armed per-statement budgets.
	limits Limits
	// deadline implements the statement timeout; the statement clock
	// started Limits.Timeout before it (see elapsed).
	deadline time.Time
	// sh holds the statement-wide atomic counters (work ticks, memory,
	// subquery-cache lookups, DML rows and rollbacks, early-termination
	// flag) shared with every worker child.
	sh *shared
	// colWidth overrides the columnar batch width; 0 means colBatchSize.
	// Only tests set it (see SetColWidth).
	colWidth int
	// par, when set, receives parallel-execution telemetry (worker
	// lifecycle, batch sizes, backpressure) for the obs layer.
	par *ParallelObs
	// waitProf/waits receive wait-event durations from the statement's
	// blocking sites (exchange backpressure, cancellation stalls): the
	// DB-wide profile and the per-statement attribution set. Both are
	// nil-safe and shared by every worker child.
	waitProf *obs.WaitProfile
	waits    *obs.WaitSet
	// own receives the pooled objects operators acquire (see Tree); nil
	// leaves them to the garbage collector. stage is own's slab, nil on
	// an exchange worker (see materialize).
	own   *Tree
	stage *rowSlab
	// execID names the execution, worker children included: state an
	// operator keeps across re-opens within one execution (an inner
	// runner's counters, a subplan's cached results) is dropped when it
	// changes.
	execID uint64
}

// execSeq numbers executions (see Ctx.execID).
var execSeq atomic.Uint64

// NewCtx returns an execution context.
func NewCtx(cat *catalog.Catalog, params map[string]datum.Value) *Ctx {
	c := &Ctx{}
	c.reset(cat, params, &shared{})
	return c
}

// reset readies c for a new execution over cat with params bound: every
// other field is zero, the shared record sh is zeroed, and the
// execution gets a new execID.
func (c *Ctx) reset(cat *catalog.Catalog, params map[string]datum.Value, sh *shared) {
	*sh = shared{}
	*c = Ctx{Cat: cat, Params: params, sh: sh, execID: execSeq.Add(1)}
	c.ec = expr.Context{Params: params, Exec: c}
}

// SetArgs binds the statement's lifted VALUES cells (see expr.Arg).
func (c *Ctx) SetArgs(args []datum.Value) { c.ec.Args = args }

// SetDOP does nothing: a plan's GATHER nodes carry its degree of
// parallelism, and an exchange always runs its workers concurrently.
//
// Deprecated: the plan decides parallelism; there is no runtime degree.
func (c *Ctx) SetDOP(int) {}

// SetParallelObs installs the parallel-execution telemetry hooks.
func (c *Ctx) SetParallelObs(p *ParallelObs) { c.par = p }

// SetWaits installs the wait-event accumulators: the DB-wide profile
// and the per-statement set. Either may be nil.
func (c *Ctx) SetWaits(p *obs.WaitProfile, s *obs.WaitSet) {
	c.waitProf = p
	c.waits = s
}

// recordWait charges one wait that began at start to both accumulators.
func (c *Ctx) recordWait(e obs.WaitEvent, start time.Time) {
	if c.waitProf == nil && c.waits == nil {
		return
	}
	d := time.Since(start).Nanoseconds()
	c.waitProf.Record(e, d)
	c.waits.Record(e, d)
}

// child derives a worker context for one exchange worker: it shares
// the catalog, parameters, cancellation, limits and — critically — the
// shared atomic counter record, so all workers draw down one
// statement-wide budget. Recursive work tables are per-worker (the
// optimizer never parallelizes recursive subtrees, so leaving the
// parent's map behind is only defensive); correlation is inherited
// read-only.
func (c *Ctx) child() *Ctx {
	nc := *c
	nc.rec, nc.stage = nil, nil
	nc.ec.Exec = &nc
	return &nc
}

// exprCtx adapts the execution context for expression evaluation; the
// Ctx itself rides along so Subplan closures (deferred subqueries) can
// recover it. Every call returns the same context, so operators may
// fetch it per row.
func (c *Ctx) exprCtx() *expr.Context { return &c.ec }

// setCorr installs the correlation vector a subplan evaluates under
// and returns the one it replaces, for the caller to restore.
func (c *Ctx) setCorr(corr datum.Row) datum.Row {
	saved := c.ec.Corr
	c.ec.Corr = corr
	return saved
}

// ---------------------------------------------------------------------
// Expression binding

// bindEnv maps QGM columns to slots: local (the operator's input row)
// and correlated (the enclosing correlation vector).
type bindEnv struct {
	local map[plan.ColRef]int
	corr  map[plan.ColRef]int
}

func envFromCols(cols []plan.ColRef, corr map[plan.ColRef]int) *bindEnv {
	e := &bindEnv{local: map[plan.ColRef]int{}, corr: corr}
	for i, c := range cols {
		e.local[c] = i
	}
	return e
}

// bind resolves every column reference in an expression to a local or
// correlation slot.
func (env *bindEnv) bind(e expr.Expr) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var bindErr error
	out := expr.Transform(e, func(x expr.Expr) expr.Expr {
		c, ok := x.(*expr.Col)
		if !ok {
			return x
		}
		ref := plan.ColRef{QID: c.QID, Ord: c.Ord}
		if s, ok := env.local[ref]; ok {
			nc := *c
			nc.Slot, nc.Corr = s, false
			return &nc
		}
		if env.corr != nil {
			if s, ok := env.corr[ref]; ok {
				nc := *c
				nc.Slot, nc.Corr = s, true
				return &nc
			}
		}
		if bindErr == nil {
			bindErr = fmt.Errorf("exec: cannot bind column %s (q%d.#%d)", c.Name, c.QID, c.Ord)
		}
		return x
	})
	return out, bindErr
}

func (env *bindEnv) bindAll(es []expr.Expr) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		b, err := env.bind(e)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// evalPreds evaluates a conjunct list as a WHERE clause (UNKNOWN is
// false).
func evalPreds(ctx *Ctx, preds []expr.Expr, row datum.Row) (bool, error) {
	ec := ctx.exprCtx()
	for _, p := range preds {
		v, err := p.Eval(ec, row)
		if err != nil {
			return false, err
		}
		if !datum.TristateOf(v).IsTrue() {
			return false, nil
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------
// Builder (plan refinement): transforms the optimizer's plan tree into
// an executable operator tree with all expressions slot-bound.

// Builder builds operator trees; DBCs may register executors for new
// LOLEPOPs ("adding new operators to the QES has been trivial").
type Builder struct {
	cat *catalog.Catalog
	// custom maps DBC operator names to their build functions.
	custom map[string]BuildFunc
	// instr, when set, wraps every built operator with the stats
	// decorator (see Instrumented); nil on the DB's shared builder. Only
	// Build reads it, so which operators get built never depends on it.
	instr *Instrumentation
	// morsel, when set, rebinds one SCAN plan node (by identity) to a
	// morsel-claiming cursor over a shared page dispenser. buildGather
	// sets it on per-worker builder copies; the DB's shared builder
	// never carries one.
	morsel *morselBinding
	// repart, when set, rebinds REPART plan nodes to a reader over one
	// partition of a shared REPART exchange (also per-worker state).
	repart *repartBinding
	// vec compiles kernels (see Vectorized): on in every builder but
	// the equivalence reference's. It never decides which operator a
	// plan node gets.
	vec bool
}

// BuildFunc builds a Stream for a custom plan operator; inputs are the
// already-built child streams.
type BuildFunc func(b *Builder, n *plan.Node, inputs []Stream, corr map[plan.ColRef]int) (Stream, error)

// NewBuilder returns a builder over the catalog.
func NewBuilder(cat *catalog.Catalog) *Builder {
	return &Builder{cat: cat, custom: map[string]BuildFunc{}, vec: true}
}

// RegisterOperator installs a custom LOLEPOP executor.
func (b *Builder) RegisterOperator(op string, f BuildFunc) {
	b.custom[op] = f
}

// Build refines a plan node into an executable stream. corr maps the
// correlation columns available to this subtree. When the builder is
// instrumented, every node's stream — children included, since they are
// built through this method too — is wrapped with the stats decorator.
func (b *Builder) Build(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	s, err := b.buildNode(n, corr)
	if err != nil || b.instr == nil {
		return s, err
	}
	return b.instr.wrap(n, s), nil
}

func (b *Builder) buildNode(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	switch n.Op {
	case plan.OpScan:
		return b.buildScan(n, corr)
	case plan.OpGather:
		return b.buildGather(n, corr)
	case plan.OpRepart:
		return b.buildRepart(n, corr)
	case plan.OpIndex:
		return b.buildIndexScan(n, corr)
	case plan.OpAccess:
		return b.buildAccess(n, corr)
	case plan.OpChoose:
		return b.buildChoose(n, corr)
	case plan.OpFilter:
		return b.buildFilter(n, corr)
	case plan.OpProject:
		return b.buildProject(n, corr)
	case plan.OpSort:
		return b.buildSort(n, corr)
	case plan.OpNLJoin, plan.OpSubq:
		return b.buildApply(n, corr)
	case plan.OpHSJoin:
		return b.buildHashJoin(n, corr)
	case plan.OpSMJoin:
		return b.buildMergeJoin(n, corr)
	case plan.OpGroup, plan.OpDistinct:
		return b.buildGroup(n, corr)
	case plan.OpUnion, plan.OpInter, plan.OpExcept, plan.OpTemp:
		return b.buildSetOp(n, corr)
	case plan.OpValues:
		return b.buildValues(n, corr)
	case plan.OpTableFn:
		return b.buildTableFn(n, corr)
	case plan.OpRecUnion:
		return b.buildRecUnion(n, corr)
	case plan.OpRecRef:
		return &recRefOp{boxID: n.RecBoxID}, nil
	case plan.OpLimit:
		return b.buildLimit(n, corr)
	case plan.OpInsert:
		return b.buildInsert(n, corr)
	case plan.OpUpdate, plan.OpDelete:
		return b.buildUpdateDelete(n, corr)
	}
	if f, ok := b.custom[n.Op]; ok {
		ins, err := b.buildInputs(n, corr)
		if err != nil {
			return nil, err
		}
		return f(b, n, ins, corr)
	}
	return nil, fmt.Errorf("exec: unknown plan operator %s", n.Op)
}

// buildInputs builds each of n's inputs, in order.
func (b *Builder) buildInputs(n *plan.Node, corr map[plan.ColRef]int) ([]Stream, error) {
	ins := make([]Stream, 0, len(n.Inputs))
	for _, c := range n.Inputs {
		s, err := b.Build(c, corr)
		if err != nil {
			return nil, err
		}
		ins = append(ins, s)
	}
	return ins, nil
}

// Run executes a fresh operator tree once and lets it die: the pooled
// objects its operators acquired go back to their pools before Run
// returns, so s may run again but re-acquires them.
func Run(ctx *Ctx, s Stream) ([]datum.Row, error) {
	t := &Tree{root: s}
	defer t.Release()
	return t.Run(ctx)
}

// materialize drains a stream into a materialized result, charging one
// work-budget tick per result row. It stages the rows in ctx.stage
// (nested calls above the outer ones) or a pooled slab, then hands out
// one exact-size block: a []datum.Row and, for a columnar stream, one
// arena of the values copied out of its batches. On any failure —
// including a failing Close — it returns a nil result, never partial
// rows beside a non-nil error.
func materialize(ctx *Ctx, s Stream) ([]datum.Row, error) {
	sl := ctx.stage
	if sl == nil {
		sl = slabPool.Get().(*rowSlab)
		defer slabPool.Put(sl)
	}
	first, v := len(sl.rows), len(sl.vals)
	defer sl.truncate(first, v)
	if err := sl.drain(ctx, s); err != nil || len(sl.rows) == first {
		return nil, err
	}
	rows := make([]datum.Row, len(sl.rows)-first)
	if len(sl.vals) == v {
		copy(rows, sl.rows[first:])
		return rows, nil
	}
	vals := append([]datum.Value(nil), sl.vals[v:]...)
	for k, r := range sl.rows[first:] {
		rows[k], vals = vals[:len(r):len(r)], vals[len(r):]
	}
	return rows, nil
}

// rowSlab stages drained rows: their headers, and the values of rows
// copied out of batches, which those headers slice.
type rowSlab struct {
	rows []datum.Row
	vals []datum.Value
}

// slabPool's vals start non-nil, so a zero-width row is empty, not nil.
var slabPool = sync.Pool{New: func() any { return &rowSlab{vals: []datum.Value{}} }}

// drain runs s once and appends its rows to sl, one work tick each: a
// columnar stream's by batch, values copied, any other stream's by Next,
// headers only. Close always runs, and its error joins the others.
func (sl *rowSlab) drain(ctx *Ctx, s Stream) (err error) {
	if cs, ok := s.(ColBatchStream); ok {
		first, v, w := len(sl.rows), len(sl.vals), 0
		err := drainBatches(ctx, cs, true, func(b *datum.ColBatch) error {
			sl.rows = slices.Grow(sl.rows, b.NumLive())[:len(sl.rows)+b.NumLive()]
			sl.vals, w = b.AppendValues(sl.vals), len(b.Vecs)
			return nil
		})
		// Carve once every value is in: vals moves as it grows.
		for k := first; err == nil && k < len(sl.rows); k, v = k+1, v+w {
			sl.rows[k] = sl.vals[v : v+w : v+w]
		}
		return err
	}
	if err := s.Open(ctx); err != nil {
		return errors.Join(err, s.Close(ctx))
	}
	defer func() { err = errors.Join(err, s.Close(ctx)) }()
	for {
		row, ok, err := s.Next(ctx)
		if err != nil || !ok {
			return err
		}
		if err := ctx.tick(); err != nil {
			return err
		}
		sl.rows = append(sl.rows, row)
	}
}

// keep reports whether an idle owner keeps the slab (see
// maxParkedBytes).
func (sl *rowSlab) keep() bool {
	return sl == nil || int64(cap(sl.rows)+cap(sl.vals))*24 <= maxParkedBytes
}

// truncate drops the staged rows and values past the first rows and
// vals, keeping the capacity.
func (sl *rowSlab) truncate(rows, vals int) {
	clear(sl.rows[rows:])
	clear(sl.vals[vals:])
	sl.rows, sl.vals = sl.rows[:rows], sl.vals[:vals]
}

// ---------------------------------------------------------------------
// Trees: what the operators of one built plan own

// Tree is a built operator tree kept across executions — the refined
// plan of section 3, stored beside the plan it refines. Its operators
// keep what they grow across Close, and the pooled objects among that
// (batches and hash-join state from a sync.Pool) stay with the tree
// until Release, the only place they go back. A Tree runs one
// execution at a time, but its exchange workers acquire concurrently.
// It also owns the context its executions run under (see Ctx), so
// running a kept tree allocates no per-statement execution state.
type Tree struct {
	root Stream
	// ctx and sh are the execution context and its shared record,
	// readied by Ctx and emptied by Done.
	ctx Ctx
	sh  shared
	// stage is the pooled slab materialize stages in (see Ctx.stage).
	stage    *rowSlab
	mu       sync.Mutex
	holders  []pooledHolder
	released int
}

// BuildTree builds the operator tree of a compiled plan's root.
func (b *Builder) BuildTree(n *plan.Node) (*Tree, error) {
	s, err := b.Build(n, nil)
	if err != nil {
		return nil, err
	}
	return &Tree{root: s}, nil
}

// Run executes the tree once (see materialize); its operators keep
// their state for the next Run.
func (t *Tree) Run(ctx *Ctx) ([]datum.Row, error) {
	ctx.own = t
	if t.stage == nil {
		t.stage = slabPool.Get().(*rowSlab)
		ctx.hold(t)
	}
	ctx.stage = t.stage
	return materialize(ctx, t.root)
}

// releasePooled gives the stage back: materialize has emptied it.
func (t *Tree) releasePooled() {
	slabPool.Put(t.stage)
	t.stage = nil
}

// park drops a stage that outgrew maxParkedBytes.
func (t *Tree) park() bool {
	if t.stage.keep() {
		return true
	}
	t.stage = nil
	return false
}

// Ctx readies the tree's own execution context for one run over cat
// with params bound, as NewCtx would a new one, and returns it: the
// shared counters start at zero and the new execID makes the state
// operators keep across re-opens start over.
func (t *Tree) Ctx(cat *catalog.Catalog, params map[string]datum.Value) *Ctx {
	t.ctx.reset(cat, params, &t.sh)
	return &t.ctx
}

// Done ends the run on the tree's context: it drops every reference
// into the finished statement — catalog, parameters, arguments,
// transaction, cancellation, wait set, recursive work tables — so an
// idle tree pins none of it. Call it after the run's results are read
// and before the tree is parked or released. It empties the apply
// caches too, and drops (counting them released) the buffers that
// outgrew maxParkedBytes: the result stage, runner slabs, hash tables.
func (t *Tree) Done() {
	t.ctx = Ctx{}
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.holders[:0]
	for _, h := range t.holders {
		if p, ok := h.(parker); ok && !p.park() {
			t.released++
			continue
		}
		kept = append(kept, h)
	}
	clear(t.holders[len(kept):])
	t.holders = kept
}

// maxParkedBytes bounds each buffer an idle tree keeps: its result
// stage, an apply runner's slab and each hash table. A larger one is
// dropped when the tree parks rather than pooled, so neither the tree
// nor the pool holds memory sized by the largest execution it saw.
const maxParkedBytes = 12 << 20

// parker is a pooled holder that keeps state between executions: park
// empties what must not outlive one and reports whether the holder
// still holds its pooled objects, false when it dropped them for
// outgrowing maxParkedBytes.
type parker interface{ park() bool }

// Release ends the tree's life: every pooled object its operators hold
// goes back to its pool, once. Releasing again is a no-op; running the
// tree again re-acquires.
func (t *Tree) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.holders {
		h.releasePooled()
	}
	t.released += len(t.holders)
	t.holders = nil
}

// Pooled reports how many pooled objects the tree holds and how many it
// has given back.
func (t *Tree) Pooled() (held, released int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.holders), t.released
}

// pooledHolder is an operator holding objects from a sync.Pool;
// releasePooled gives them back and forgets them.
type pooledHolder interface{ releasePooled() }

// hold records that h acquired a pooled object, for the tree this
// execution runs to give back when it dies.
func (c *Ctx) hold(h pooledHolder) {
	if t := c.own; t != nil {
		t.mu.Lock()
		t.holders = append(t.holders, h)
		t.mu.Unlock()
	}
}
