// The batch protocol and what every batch operator shares. SCAN,
// FILTER, PROJECT, GROUP (DISTINCT is GROUP on every column), the hash
// join, the set operations (TEMP is a one-input UNION ALL), the
// recursive pair, SORT (full or top-N), LIMIT, TABLEFN and CHOOSE are
// one operator each, and each runs on ColBatches — typed column vectors
// plus a selection vector. What an operator computes is compiled once,
// at plan refinement, into fused per-type kernels where one exists (see
// colkernels.go); whatever no kernel covers — arithmetic, LIKE,
// function calls, subplans, correlated columns, DISTINCT and DBC
// aggregates — runs on the row evaluators inside the same operator, one
// live row at a time over a reused scratch row. A Builder with kernels
// off (Vectorized(false)) runs every predicate and aggregate that way:
// the reference the equivalence corpus checks the kernels against.
//
// Row-only children (the nested-loop apply that every NLJN and SUBQ
// node builds, merge join, the exchange readers) enter a batch
// operator through batchFeed, and a row-only parent pulls one by Next,
// which materializes each batch into rows (rowFeed). Fault-wrapped,
// durable and virtual relations whose iterators lack the ColScanner
// capability are read row by row into vectors, so the fault, budget and
// cancel machinery exercises the batch operators too.
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

// rowFeed adapts a columnar producer to the Stream interface for the
// consumers that pull Next one row at a time (an apply's outer, an
// exchange producer) by materializing each batch into retainable
// rows; materialize drains batches instead (see rowSlab.drain). The
// rows slice is the reused batch container; trailing slots are cleared
// before refill so it never pins rows from earlier batches.
type rowFeed struct {
	rows []datum.Row
	pos  int
	done bool
}

func (f *rowFeed) reset() {
	clear(f.rows)
	*f = rowFeed{rows: f.rows[:0]}
}

func (f *rowFeed) refill(ctx *Ctx, src colBatchSource) (bool, error) {
	clear(f.rows)
	f.rows, f.pos = f.rows[:0], 0
	b, more, err := src.NextColBatch(ctx)
	if err != nil {
		return false, err
	}
	if b != nil {
		f.rows = b.MaterializeInto(f.rows)
	}
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

// batchFeed is rowFeed's mirror: it adapts a row producer (the apply,
// GATHER, ...) to the columnar protocol by decomposing its rows
// into one pooled batch, so a batch operator has a single input shape.
// Under a LIMIT, left is the LIMIT's quota: a batch holds no more rows
// than it still needs.
type batchFeed struct {
	Stream
	types []datum.TypeID
	batch batchHold
	left  *int64
}

// asColBatchStream returns s itself when it is columnar, else s behind
// a batchFeed producing vectors of the given types.
func asColBatchStream(s Stream, types []datum.TypeID) ColBatchStream {
	if cs, ok := s.(ColBatchStream); ok {
		return cs
	}
	return &batchFeed{Stream: s, types: types}
}

func (f *batchFeed) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	b, max := f.batch.get(ctx, f.types), int64(ctx.colBatchWidth())
	if f.left != nil {
		max = min(max, *f.left)
	}
	for int64(b.Len()) < max {
		row, ok, err := f.Stream.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return b, false, nil
		}
		b.AppendRow(row)
	}
	return b, true, nil
}

func (f *batchFeed) Close(ctx *Ctx) error {
	f.batch.empty()
	return f.Stream.Close(ctx)
}

// drainBatches runs in once, handing f each batch with live rows once
// they are charged to the work budget: in one tick, as a batch operator
// charges, or with rowTicks one tick each, as materialize does. Close
// always runs, after a failed Open too (a multi-input operator may have
// opened some children before failing), and its error joins the others.
func drainBatches(ctx *Ctx, in ColBatchStream, rowTicks bool, f func(b *datum.ColBatch) error) (err error) {
	if err := in.Open(ctx); err != nil {
		return errors.Join(err, in.Close(ctx))
	}
	defer func() { err = errors.Join(err, in.Close(ctx)) }()
	for {
		b, more, err := in.NextColBatch(ctx)
		if err != nil {
			return err
		}
		if b != nil && b.NumLive() > 0 {
			step := b.NumLive()
			if rowTicks {
				step = 1
			}
			for k := b.NumLive(); k > 0; k -= step {
				if err := ctx.tickRows(step); err != nil {
					return err
				}
			}
			if err := f(b); err != nil {
				return err
			}
		}
		if !more {
			return nil
		}
	}
}

// batchHold is an operator's hold on a pooled batch whose every lane it
// owns: taken at first use, dropped on park once it outgrew
// maxParkedBytes, given back when the tree dies. get returns it empty.
type batchHold struct{ *datum.ColBatch }

func (h *batchHold) get(ctx *Ctx, types []datum.TypeID) *datum.ColBatch {
	if h.ColBatch == nil {
		h.ColBatch = datum.AcquireColBatch(types)
		ctx.hold(h)
	}
	h.Reset()
	return h.ColBatch
}

// empty drops the rows and keeps the lanes: an idle batch pins no payload.
func (h *batchHold) empty() {
	if h.ColBatch != nil {
		h.Reset()
	}
}

func (h *batchHold) park() bool {
	if h.CapBytes() > maxParkedBytes {
		h.ColBatch = nil
	}
	return h.ColBatch != nil
}

func (h *batchHold) releasePooled() {
	h.Release()
	h.ColBatch = nil
}

// window serves what an operator computed whole at Open — its hash
// table's lanes, or a batch it drained its input into — as views
// (datum.ColBatch.Window) of at most a batch width of live rows: rows
// [pos, end) of src, or the rows its selection entries [pos, end) name.
type window struct {
	src      *datum.ColBatch
	pos, end int
	out      datum.ColBatch
	feed     rowFeed
}

// serve points the window at src's rows, or selection entries, [lo, hi).
func (w *window) serve(src *datum.ColBatch, lo, hi int) {
	w.src, w.pos, w.end = src, lo, hi
	w.feed.reset()
}

func (w *window) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	if w.pos >= w.end {
		return nil, false, nil
	}
	lo, n := w.pos, ctx.colBatchWidth()
	if sel := w.src.Sel; sel != nil {
		// The live rows less than a batch width past the first: their
		// entries, rebased in place, are the view's selection vector.
		base, k := sel[lo], lo
		for ; k < w.end && sel[k]-base < n; k++ {
			sel[k] -= base
		}
		w.out.Window(w.src, base, base+sel[k-1]+1)
		w.out.Sel, w.pos = sel[lo:k:k], k
	} else {
		w.pos = min(lo+n, w.end)
		w.out.Window(w.src, lo, w.pos)
	}
	return &w.out, w.pos < w.end, nil
}

func (w *window) Next(ctx *Ctx) (datum.Row, bool, error) {
	return w.feed.next(ctx, w)
}

// drop forgets src and its lanes, so an idle operator pins no payload.
func (w *window) drop() {
	w.serve(nil, 0, 0)
	for c := range w.out.Vecs {
		w.out.Vecs[c] = datum.ColVec{Nulls: w.out.Vecs[c].Nulls[:0]}
	}
	w.out.Sel = nil
}

func (w *window) Close(*Ctx) error {
	w.drop()
	return nil
}

// ---------------------------------------------------------------------
// Row evaluation inside batch operators

// loadRow copies live row i of b into the scratch row and returns it,
// for the row evaluators to read.
func loadRow(scratch datum.Row, b *datum.ColBatch, i int) datum.Row {
	for c := range b.Vecs {
		scratch[c] = b.Vecs[c].ValueAt(i)
	}
	return scratch
}

// predList is a conjunct list as a batch operator runs it: kernels when
// every conjunct compiles and the builder compiles kernels, else the
// row evaluators over a reused scratch row — the whole list either way,
// so conjunct order and short-circuiting match evalPreds.
type predList struct {
	kernels []colPred
	rows    []expr.Expr
	scratch datum.Row
}

// predList binds the conjuncts preds for batches width columns wide.
func (b *Builder) predList(preds []expr.Expr, width int) predList {
	if len(preds) == 0 {
		return predList{}
	}
	if b.vec {
		if kernels, ok := compileColPreds(preds); ok {
			return predList{kernels: kernels}
		}
	}
	return predList{rows: preds, scratch: make(datum.Row, width)}
}

func (p *predList) empty() bool { return p.kernels == nil && p.rows == nil }

// apply shrinks b's selection vector to the live rows every conjunct
// accepts (UNKNOWN rejects).
func (p *predList) apply(ctx *Ctx, b *datum.ColBatch) error {
	if p.rows == nil {
		return applyColPreds(p.kernels, b)
	}
	keep := b.SelBuf()
	err := b.EachLive(func(i int) error {
		ok, err := evalPreds(ctx, p.rows, loadRow(p.scratch, b, i))
		if ok {
			keep = append(keep, i)
		}
		return err
	})
	b.Sel = keep
	return err
}

// ---------------------------------------------------------------------
// Hash JOIN

// hashJoinOp is the one hash join, batch-native on both inputs. Open
// drains the build input (plan Inputs[1]: the optimizer puts the
// smaller side there) into its hash table's lanes and threads the
// table's chains over them. NextColBatch streams the probe input
// (Inputs[0]) a batch at a time: hash the live rows, walk the chains
// for candidate (probe row, build row) pairs, confirm them on the typed
// key lanes, and emit the survivors as one ColBatch — in probe order,
// then build order, NULL-extended in place for KindLeftOuter. No tuple
// is boxed on the way; a joined tuple first becomes a datum.Row where
// a row-protocol consumer pulls it through Next, if one ever does.
type hashJoinOp struct {
	probe, build ColBatchStream
	kind         string
	lKeys, rKeys []int
	// lw is the probe width: output slots [0, lw) are probe columns,
	// the rest build columns.
	lw int
	// buildTypes/outTypes size the pooled state to this join.
	buildTypes, outTypes []datum.TypeID
	// residual is the non-equi join predicate, bound over the output
	// layout.
	residual predList

	// filter, when set, is the pushed-down join filter hosted by a
	// columnar scan in the probe subtree; Open populates it from the
	// build rows' key hashes.
	filter *joinFilter

	// st is everything the join grows while it runs: its build table,
	// and the probe's buffers beside it. The first Open takes it from
	// tablePool, and it goes back when the tree dies.
	st  *hashTable
	mem memCharge

	// Probe state: the current probe batch and the live position the
	// next chunk of output starts from.
	in   *datum.ColBatch
	more bool
	pos  int
	feed rowFeed
}

// joinBufs are what a hash join's probe grows, kept in its table.
// pairP/pairB hold one chunk's (probe row, build row) pairs; fillP/fillB
// the same after outer fill. own holds the lanes the join gathers into;
// out is the batch handed downstream, its Vecs header copies of own's
// or, for an aliased probe column, of the probe's. jf keeps the pushed
// join filter's buffers between executions.
type joinBufs struct {
	pairP, pairB, fillP, fillB []int
	own, out                   datum.ColBatch
	jf                         joinFilterBufs
}

// empty clears every string header and boxed value of the lanes the
// join owns, and drops the emitted batch's header copies instead of
// resetting them (their lanes are someone else's), so a table between
// executions pins no payload.
func (jb *joinBufs) empty() {
	jb.own.Reset()
	clear(jb.out.Vecs)
	jb.out.SetRows(0, nil)
}

// slotTypes returns the vector types for a plan node's output slots. A
// node without declared types (a hand-built plan) gets NULL-typed, that
// is boxed, vectors.
func slotTypes(n *plan.Node) []datum.TypeID {
	if len(n.Types) == len(n.Cols) {
		return n.Types
	}
	return make([]datum.TypeID, len(n.Cols))
}

func (b *Builder) buildHashJoin(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
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
	lt, rt := slotTypes(n.Inputs[0]), slotTypes(n.Inputs[1])
	types := append(append([]datum.TypeID(nil), lt...), rt...)
	j := &hashJoinOp{
		probe: asColBatchStream(l, lt), build: asColBatchStream(r, rt),
		kind: n.JoinKind, lKeys: n.EquiLeft, rKeys: n.EquiRight, lw: len(lt),
		buildTypes: rt, outTypes: types,
		residual: b.predList(expr.Conjuncts(pred), len(types)),
	}
	// Push a join filter into a scan feeding the probe side: inner joins
	// only (an outer join must surface unmatched probe rows, so the scan
	// may not drop them).
	if (n.JoinKind == "" || n.JoinKind == plan.KindRegular) && len(n.EquiLeft) > 0 {
		if cs, keys := pushJoinFilter(l, n.EquiLeft); cs != nil {
			j.filter = &joinFilter{}
			cs.jf, cs.jfKeys = j.filter, keys
		}
	}
	return j, nil
}

func (j *hashJoinOp) Open(ctx *Ctx) error {
	if j.st == nil {
		j.st = acquireTable(j.buildTypes, j.rKeys)
		j.st.join.own.SetTypes(j.outTypes)
		j.st.join.out.SetTypes(j.outTypes)
		ctx.hold(j)
		if j.filter != nil {
			j.filter.joinFilterBufs = j.st.join.jf
		}
	}
	if j.filter != nil {
		// Deactivate before the probe side opens so a re-opened join
		// never filters against the previous build's bits.
		j.filter.ready.Store(false)
	}
	j.feed.reset()
	j.in, j.more, j.pos, j.st.hashBuf = nil, true, 0, j.st.hashBuf[:0]
	if err := j.probe.Open(ctx); err != nil {
		return err
	}
	// The build input's lifetime ends here, drained into the table: it is
	// closed before the first probe, after a failed Open too, so the
	// join's Close closes only the probe input.
	st := j.st
	st.empty()
	err := drainBatches(ctx, j.build, false, func(b *datum.ColBatch) error {
		st.rows.AppendLive(b)
		return nil
	})
	if err != nil {
		return err
	}
	st.build()
	if j.filter != nil {
		j.filter.populate(st.hashes, st.nullBuf)
	}
	return j.mem.charge(ctx, st.memBytes())
}

func (j *hashJoinOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	st, outer := j.st, j.kind == plan.KindLeftOuter
	for {
		if j.pos >= len(st.hashBuf) {
			if !j.more {
				return nil, false, nil
			}
			b, more, err := j.probe.NextColBatch(ctx)
			if err != nil {
				return nil, false, err
			}
			j.in, j.more, j.pos, st.hashBuf = b, more, 0, st.hashBuf[:0]
			if b != nil {
				st.hashBuf, st.nullBuf = b.HashLive(j.lKeys, st.hashBuf, st.nullBuf[:0])
			}
			continue
		}
		// One chunk of output: the pairs of the next probe rows, up to
		// about a batch width of them.
		from := j.pos
		jb := &st.join
		pp, pb, to := joinProbeKernel(st.hashBuf, st.nullBuf, j.in.Sel, from, ctx.colBatchWidth(),
			st.hashes, st.heads, st.next, jb.pairP[:0], jb.pairB[:0])
		jb.pairP, jb.pairB, j.pos = pp, pb, to
		cands := len(pp)
		pp, pb = st.match(j.in, j.lKeys, pp, pb)
		if len(pp) > 0 && !j.residual.empty() {
			// The residual runs over the emitted pairs, and what it leaves
			// of an inner join is the output. An outer join needs the
			// survivors back as pairs, to see which probe rows kept none:
			// its candidates are gathered, never aliased, so the selection
			// vector indexes the pair list.
			j.emit(pp, pb, !outer)
			if err := j.residual.apply(ctx, &jb.out); err != nil {
				return nil, false, err
			}
			sel := jb.out.Sel
			if !outer && len(sel) > 0 {
				return &jb.out, true, nil
			}
			if outer {
				for k, s := range sel {
					pp[k], pb[k] = pp[s], pb[s]
				}
			}
			pp, pb = pp[:len(sel)], pb[:len(sel)]
		}
		if outer {
			pp, pb = outerFillKernel(pp, pb, j.in.Sel, from, to, jb.fillP[:0], jb.fillB[:0])
			jb.fillP, jb.fillB = pp, pb
		}
		if len(pp) == 0 {
			// Nothing survived: charge the pairs considered, so a join
			// whose predicate rejects everything stays cancellable.
			if err := ctx.tickRows(cands); err != nil {
				return nil, false, err
			}
			continue
		}
		j.emit(pp, pb, true)
		return &jb.out, true, nil
	}
}

// emit assembles out from the pairs: row k joins probe row pp[k] with
// build row pb[k] (NULLs where pb[k] < 0). When alias is allowed and no
// probe row repeats, the probe lanes pass through untouched under the
// selection pp and only the build lanes move, scattered to their probe
// rows' positions; otherwise both sides are gathered densely.
func (j *hashJoinOp) emit(pp, pb []int, alias bool) {
	for k := 1; alias && k < len(pp); k++ {
		alias = pp[k] != pp[k-1]
	}
	st, n, at := j.st, len(pp), []int(nil)
	own, out := st.join.own.Vecs, st.join.out.Vecs
	if alias {
		n, at = j.in.Len(), pp
		copy(out[:j.lw], j.in.Vecs)
	} else {
		for c := 0; c < j.lw; c++ {
			own[c].Gather(&j.in.Vecs[c], pp, nil, n)
			out[c] = own[c]
		}
	}
	for c := range st.rows.Vecs {
		own[j.lw+c].Gather(&st.rows.Vecs[c], pb, at, n)
		out[j.lw+c] = own[j.lw+c]
	}
	st.join.out.SetRows(n, at)
}

func (j *hashJoinOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	return j.feed.next(ctx, j)
}

// Close is idempotent. It keeps the table, emptied, for the next Open;
// the filter goes inactive once the probe side (and the scan hosting
// it) has closed.
func (j *hashJoinOp) Close(ctx *Ctx) error {
	j.in = nil
	j.mem.release(ctx)
	err := j.probe.Close(ctx)
	if j.filter != nil {
		j.filter.ready.Store(false)
	}
	if j.st != nil {
		j.st.empty()
	}
	return err
}

// park drops a table that outgrew maxParkedBytes, with the filter
// buffers it lent.
func (j *hashJoinOp) park() bool {
	if j.st.keep() {
		return true
	}
	if j.filter != nil {
		j.filter.joinFilterBufs = joinFilterBufs{}
	}
	j.st = nil
	return false
}

// releasePooled gives the table back, with the filter buffers it lent.
func (j *hashJoinOp) releasePooled() {
	if j.filter != nil {
		j.st.join.jf, j.filter.joinFilterBufs = j.filter.joinFilterBufs, joinFilterBufs{}
	}
	releaseTable(j.st)
	j.st = nil
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
	joinFilterBufs
}

// joinFilterBufs are a join filter's buffers: its bit array and the
// hosting scan's key hashes of the batch it is filtering. The hash join
// lends them from its state for as long as it holds that state.
type joinFilterBufs struct {
	bits    []uint64
	hashBuf []uint64
	nullBuf []bool
}

// populate sizes the filter to the build rows' key hashes (~8 bits
// each, power of two) and inserts them; nulls marks the rows whose key
// holds a NULL, which match nothing and stay out.
func (f *joinFilter) populate(hashes []uint64, nulls []bool) {
	bits := 64
	for bits < len(hashes)*8 {
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
	for r, h := range hashes {
		if !nulls[r] {
			f.set(h)
			f.set(jfRehash(h))
		}
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
// operators (and their stats decorators) looking for a scan to host the
// join filter, remapping key slots through alias projections. LIMIT
// blocks the push: a filter below LIMIT would change which rows fill
// the quota.
func pushJoinFilter(s Stream, keys []int) (*scanOp, []int) {
	k := append([]int(nil), keys...)
	for {
		switch t := undecorated(s).(type) {
		case *filterOp:
			s = t.input
		case *projectOp:
			for i, slot := range k {
				if slot >= len(t.srcs) || t.srcs[slot] < 0 {
					return nil, nil
				}
				k[i] = t.srcs[slot]
			}
			s = t.input
		case *scanOp:
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

// Vectorized returns a copy of the builder that compiles kernels (on)
// or runs every predicate and aggregate on the row evaluators inside
// the same operators (off) — the reference the equivalence corpus
// checks the kernels against. It never changes which operators are
// built.
func (b *Builder) Vectorized(on bool) *Builder {
	nb := *b
	nb.vec = on
	return &nb
}
