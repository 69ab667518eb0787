// Fused filter and aggregate kernels for the columnar path. A kernel
// is compiled once at plan-refinement time from a bound predicate or
// aggregate call and then runs tight per-type loops over ColVec lanes,
// writing the batch's selection vector — no per-row interface dispatch
// and no Value boxing on the hot path.
//
// Semantics are pinned to the row-oriented evaluators: a kernel must
// accept and reject exactly the rows expr.EvalCmp would, NULL and
// type-coercion rules included, and a columnar aggregate must produce
// exactly the value the corresponding expr.AggState would. Vectors
// that fell back to boxed representation take a generic per-element
// path through those very evaluators, so the fallback is equivalent by
// construction.
package exec

import (
	"cmp"
	"fmt"

	"repro/internal/datum"
	"repro/internal/expr"
)

// colPred is one compiled predicate. filter appends the surviving live
// row indices to out (which the caller sizes to hold every live row)
// and never reorders them.
type colPred interface {
	filter(b *datum.ColBatch, out []int) ([]int, error)
}

// applyColPreds runs the predicate pipeline over b, shrinking its
// selection vector.
func applyColPreds(preds []colPred, b *datum.ColBatch) error {
	for _, p := range preds {
		out, err := p.filter(b, b.SelBuf())
		if err != nil {
			return err
		}
		b.Sel = out
		if len(out) == 0 {
			return nil
		}
	}
	return nil
}

// compileColPreds compiles bound predicates into kernels. It reports
// ok=false when any predicate has a shape no kernel covers (arithmetic,
// function calls, subplans, correlated columns); the operator then runs
// the whole list on the row evaluators, so predicate order and
// short-circuit semantics are preserved.
func compileColPreds(preds []expr.Expr) ([]colPred, bool) {
	if len(preds) == 0 {
		return nil, true
	}
	out := make([]colPred, 0, len(preds))
	for _, p := range preds {
		switch e := p.(type) {
		case *expr.Cmp:
			lc, lok := asBoundCol(e.L)
			rc, rok := asBoundCol(e.R)
			lk, lconst := e.L.(*expr.Const)
			rk, rconst := e.R.(*expr.Const)
			switch {
			case lok && rok:
				out = append(out, &cmpColColPred{op: e.Op, l: lc.Slot, r: rc.Slot})
			case lok && rconst:
				if rk.Val.IsNull() {
					// cmp with NULL is UNKNOWN for every row; evalPreds
					// rejects UNKNOWN, so the pipeline ends here.
					out = append(out, alwaysFalsePred{})
					continue
				}
				out = append(out, &cmpColConstPred{op: e.Op, slot: lc.Slot, c: rk.Val})
			case lconst && rok:
				if lk.Val.IsNull() {
					out = append(out, alwaysFalsePred{})
					continue
				}
				out = append(out, &cmpColConstPred{op: e.Op, slot: rc.Slot, c: lk.Val, constLeft: true})
			default:
				return nil, false
			}
		case *expr.IsNull:
			c, ok := asBoundCol(e.E)
			if !ok {
				return nil, false
			}
			out = append(out, &isNullPred{slot: c.Slot, negated: e.Negated})
		default:
			return nil, false
		}
	}
	return out, true
}

// asBoundCol matches a slot-bound, non-correlated column reference.
func asBoundCol(e expr.Expr) (*expr.Col, bool) {
	c, ok := e.(*expr.Col)
	if !ok || c.Corr || c.Slot < 0 {
		return nil, false
	}
	return c, true
}

// flipOp mirrors a comparison across the = sign: a op b == b flip(op) a.
func flipOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op
}

// cmpMask encodes which three-way comparison results (0 lt, 1 eq, 2 gt)
// satisfy op, so kernels test `mask>>res&1` instead of re-switching on
// the operator per element.
func cmpMask(op expr.CmpOp) uint {
	switch op {
	case expr.OpEq:
		return 0b010
	case expr.OpNe:
		return 0b101
	case expr.OpLt:
		return 0b001
	case expr.OpLe:
		return 0b011
	case expr.OpGt:
		return 0b100
	}
	return 0b110 // OpGe
}

// cmp3 is datum.Compare's three-way order on one lane type: a NaN
// equals a NaN and sorts below every other number.
func cmp3[T cmp.Ordered](a, b T) uint { return uint(cmp.Compare(a, b) + 1) }

// alwaysFalsePred rejects every row (comparison against a NULL literal).
type alwaysFalsePred struct{}

func (alwaysFalsePred) filter(b *datum.ColBatch, out []int) ([]int, error) {
	return out, nil
}

// isNullPred implements IS [NOT] NULL over a column.
type isNullPred struct {
	slot    int
	negated bool
}

func (p *isNullPred) filter(b *datum.ColBatch, out []int) ([]int, error) {
	v := &b.Vecs[p.slot]
	n, sel := b.Len(), b.Sel
	if v.Boxed != nil {
		if sel == nil {
			for i := 0; i < n; i++ {
				if v.Boxed[i].IsNull() != p.negated {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if v.Boxed[i].IsNull() != p.negated {
					out = append(out, i)
				}
			}
		}
		return out, nil
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if v.Nulls.Get(i) != p.negated {
				out = append(out, i)
			}
		}
	} else {
		for _, i := range sel {
			if v.Nulls.Get(i) != p.negated {
				out = append(out, i)
			}
		}
	}
	return out, nil
}

// cmpColConstPred compares one column against a non-NULL constant.
// constLeft records the original orientation (const op col) so the
// generic fallback reproduces EvalCmp's exact error text.
type cmpColConstPred struct {
	op        expr.CmpOp
	slot      int
	c         datum.Value
	constLeft bool
}

func (p *cmpColConstPred) filter(b *datum.ColBatch, out []int) ([]int, error) {
	v := &b.Vecs[p.slot]
	n, sel := b.Len(), b.Sel
	op := p.op
	if p.constLeft {
		op = flipOp(op)
	}
	if v.Boxed == nil {
		ct := p.c.Type()
		switch {
		case v.Typ == datum.TInt && ct == datum.TInt:
			return filterCmpKernel(op, v.Ints, p.c.Int(), v.Nulls, n, sel, out), nil
		case v.Typ == datum.TInt && ct == datum.TFloat:
			return filterIntFloatKernel(op, v.Ints, p.c.Float(), v.Nulls, n, sel, out), nil
		case v.Typ == datum.TFloat && (ct == datum.TInt || ct == datum.TFloat):
			return filterCmpKernel(op, v.Floats, p.c.Float(), v.Nulls, n, sel, out), nil
		case v.Typ == datum.TString && ct == datum.TString:
			return filterCmpKernel(op, v.Strs, p.c.Str(), v.Nulls, n, sel, out), nil
		case v.Typ == datum.TBool && ct == datum.TBool:
			return filterBoolKernel(op, v.Bools, p.c.Bool(), v.Nulls, n, sel, out), nil
		}
	}
	// Boxed vector or a lane/constant type pairing with no dedicated
	// kernel: evaluate per element through EvalCmp in the original
	// operand order so errors match the row path byte for byte.
	return filterGeneric(b, out, func(i int) (datum.Value, error) {
		if p.constLeft {
			return expr.EvalCmp(p.op, p.c, v.ValueAt(i))
		}
		return expr.EvalCmp(p.op, v.ValueAt(i), p.c)
	})
}

// cmpColColPred compares two columns of the same batch.
type cmpColColPred struct {
	op   expr.CmpOp
	l, r int
}

func (p *cmpColColPred) filter(b *datum.ColBatch, out []int) ([]int, error) {
	vl, vr := &b.Vecs[p.l], &b.Vecs[p.r]
	n, sel := b.Len(), b.Sel
	if vl.Boxed == nil && vr.Boxed == nil {
		switch {
		case vl.Typ == datum.TInt && vr.Typ == datum.TInt:
			return filterColsKernel(p.op, vl.Ints, vr.Ints, vl.Nulls, vr.Nulls, n, sel, out), nil
		case vl.Typ == datum.TFloat && vr.Typ == datum.TFloat:
			return filterColsKernel(p.op, vl.Floats, vr.Floats, vl.Nulls, vr.Nulls, n, sel, out), nil
		case vl.Typ == datum.TInt && vr.Typ == datum.TFloat:
			return filterIntFloatColsKernel(p.op, vl.Ints, vr.Floats, false, vl.Nulls, vr.Nulls, n, sel, out), nil
		case vl.Typ == datum.TFloat && vr.Typ == datum.TInt:
			return filterIntFloatColsKernel(p.op, vr.Ints, vl.Floats, true, vr.Nulls, vl.Nulls, n, sel, out), nil
		case vl.Typ == datum.TString && vr.Typ == datum.TString:
			return filterColsKernel(p.op, vl.Strs, vr.Strs, vl.Nulls, vr.Nulls, n, sel, out), nil
		case vl.Typ == datum.TBool && vr.Typ == datum.TBool:
			return filterBoolsKernel(p.op, vl.Bools, vr.Bools, vl.Nulls, vr.Nulls, n, sel, out), nil
		}
	}
	return filterGeneric(b, out, func(i int) (datum.Value, error) {
		return expr.EvalCmp(p.op, vl.ValueAt(i), vr.ValueAt(i))
	})
}

// filterGeneric appends to out every live row of b for which eval
// yields TRUE: the comparison kernels' fallback for boxed lanes and
// lane pairings with no typed loop.
func filterGeneric(b *datum.ColBatch, out []int, eval func(i int) (datum.Value, error)) ([]int, error) {
	err := b.EachLive(func(i int) error {
		res, err := eval(i)
		if datum.TristateOf(res).IsTrue() {
			out = append(out, i)
		}
		return err
	})
	return out, err
}

// filterCmpKernel is the common col-vs-constant loop, instantiated per
// lane type. NULL elements never satisfy a comparison.
func filterCmpKernel[T cmp.Ordered](op expr.CmpOp, vals []T, c T, nulls datum.NullBitmap, n int, sel, out []int) []int {
	mask := cmpMask(op)
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) && mask>>cmp3(vals[i], c)&1 == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if !nulls.Get(i) && mask>>cmp3(vals[i], c)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// filterIntFloatKernel compares an INT lane against a FLOAT constant
// using Compare's mixed-numeric rule (both sides as float64).
func filterIntFloatKernel(op expr.CmpOp, vals []int64, c float64, nulls datum.NullBitmap, n int, sel, out []int) []int {
	mask := cmpMask(op)
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) && mask>>cmp3(float64(vals[i]), c)&1 == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if !nulls.Get(i) && mask>>cmp3(float64(vals[i]), c)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

func filterBoolKernel(op expr.CmpOp, vals []bool, c bool, nulls datum.NullBitmap, n int, sel, out []int) []int {
	mask := cmpMask(op)
	cu := boolRank(c)
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) && mask>>cmp3(boolRank(vals[i]), cu)&1 == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if !nulls.Get(i) && mask>>cmp3(boolRank(vals[i]), cu)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// boolRank orders booleans the way Compare does: false < true.
func boolRank(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// filterColsKernel is the col-vs-col loop for same-typed lanes.
func filterColsKernel[T cmp.Ordered](op expr.CmpOp, la, lb []T, na, nb datum.NullBitmap, n int, sel, out []int) []int {
	mask := cmpMask(op)
	if sel == nil {
		for i := 0; i < n; i++ {
			if !na.Get(i) && !nb.Get(i) && mask>>cmp3(la[i], lb[i])&1 == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if !na.Get(i) && !nb.Get(i) && mask>>cmp3(la[i], lb[i])&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// filterIntFloatColsKernel compares an INT lane with a FLOAT lane; swap
// marks the FLOAT lane as the left operand of the original comparison.
func filterIntFloatColsKernel(op expr.CmpOp, ints []int64, fls []float64, swap bool, ni, nf datum.NullBitmap, n int, sel, out []int) []int {
	mask := cmpMask(op)
	if swap {
		op = flipOp(op)
		mask = cmpMask(op)
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if !ni.Get(i) && !nf.Get(i) && mask>>cmp3(float64(ints[i]), fls[i])&1 == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if !ni.Get(i) && !nf.Get(i) && mask>>cmp3(float64(ints[i]), fls[i])&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

func filterBoolsKernel(op expr.CmpOp, la, lb []bool, na, nb datum.NullBitmap, n int, sel, out []int) []int {
	mask := cmpMask(op)
	if sel == nil {
		for i := 0; i < n; i++ {
			if !na.Get(i) && !nb.Get(i) && mask>>cmp3(boolRank(la[i]), boolRank(lb[i]))&1 == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if !na.Get(i) && !nb.Get(i) && mask>>cmp3(boolRank(la[i]), boolRank(lb[i]))&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Hash-join kernels. Pairs are parallel slices: pp[k] is a probe-batch
// row index, pb[k] the build-table row it is paired with; both ascend
// in probe order, then build order.

// joinChainKernel threads the hash table's chains: heads[h&mask] and
// next[r] hold a row index + 1, 0 ending the chain. Walking rows
// backwards leaves every chain in row order. Rows nulls marks (a NULL
// join key) stay out; a nil nulls threads every row.
func joinChainKernel(hashes []uint64, nulls []bool, heads, next []int32) {
	mask := uint64(len(heads) - 1)
	for r := len(hashes) - 1; r >= 0; r-- {
		if nulls != nil && nulls[r] {
			continue
		}
		b := hashes[r] & mask
		next[r], heads[b] = heads[b], int32(r+1)
	}
}

// joinProbeKernel walks the build chains for the live probe rows from
// position from on (hashes and nulls are per live row; sel maps a live
// position to its row index), appending a candidate pair for every
// build row whose full hash equals the probe row's. It stops at a
// probe-row boundary once limit pairs are out and returns the position
// to resume from.
func joinProbeKernel(hashes []uint64, nulls []bool, sel []int, from, limit int,
	bh []uint64, heads, next []int32, pp, pb []int) ([]int, []int, int) {
	mask := uint64(len(heads) - 1)
	j := from
	for ; j < len(hashes) && len(pp) < limit; j++ {
		if nulls[j] {
			continue
		}
		i, h := j, hashes[j]
		if sel != nil {
			i = sel[j]
		}
		for r := heads[h&mask]; r != 0; r = next[r-1] {
			if bh[r-1] == h {
				pp, pb = append(pp, i), append(pb, int(r-1))
			}
		}
	}
	return pp, pb, j
}

// joinEqKernel compacts the pairs to those whose same-typed key lanes
// hold equal values, under Compare's ordering.
func joinEqKernel[T cmp.Ordered](pl, bl []T, pp, pb []int) ([]int, []int) {
	k := 0
	for c, i := range pp {
		if r := pb[c]; cmp3(pl[i], bl[r]) == 1 {
			pp[k], pb[k] = i, r
			k++
		}
	}
	return pp[:k], pb[:k]
}

// joinEqNumKernel is joinEqKernel for an INT lane against a FLOAT lane,
// using Compare's mixed-numeric rule (both sides as float64).
func joinEqNumKernel[P, B int64 | float64](pl []P, bl []B, pp, pb []int) ([]int, []int) {
	k := 0
	for c, i := range pp {
		if r := pb[c]; cmp3(float64(pl[i]), float64(bl[r])) == 1 {
			pp[k], pb[k] = i, r
			k++
		}
	}
	return pp[:k], pb[:k]
}

func joinEqBoolKernel(pl, bl []bool, pp, pb []int) ([]int, []int) {
	k := 0
	for c, i := range pp {
		if r := pb[c]; pl[i] == bl[r] {
			pp[k], pb[k] = i, r
			k++
		}
	}
	return pp[:k], pb[:k]
}

// joinEqGeneric is the boxed fallback of the key-equality kernels.
func joinEqGeneric(pv, bv *datum.ColVec, pp, pb []int) ([]int, []int) {
	k := 0
	for c, i := range pp {
		if r := pb[c]; datum.Equal(pv.ValueAt(i), bv.ValueAt(r)) {
			pp[k], pb[k] = i, r
			k++
		}
	}
	return pp[:k], pb[:k]
}

// outerFillKernel completes a left-outer chunk: it copies the surviving
// pairs to outP/outB and adds a NULL-extended pair (build index -1) for
// every probe row at live positions [from, to) that kept none, in
// probe order.
func outerFillKernel(pp, pb, sel []int, from, to int, outP, outB []int) ([]int, []int) {
	c := 0
	for j := from; j < to; j++ {
		i := j
		if sel != nil {
			i = sel[j]
		}
		if c == len(pp) || pp[c] != i {
			outP, outB = append(outP, i), append(outB, -1)
			continue
		}
		for ; c < len(pp) && pp[c] == i; c++ {
			outP, outB = append(outP, i), append(outB, pb[c])
		}
	}
	return outP, outB
}

// ---------------------------------------------------------------------
// Columnar aggregate accumulators.

// colAgg kinds, mirroring the built-in aggregate registrations.
const (
	aggCount = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// colAgg is one aggregate's per-group state across all groups, stored
// as parallel arrays indexed by group id. The typed update kernels
// reproduce countState/sumState/avgState exactly (NULL skipping and
// SUM's int→float promotion included); MIN/MAX and boxed vectors go
// through the per-element addValue path, which is a transliteration of
// the corresponding AggState.Add methods.
type colAgg struct {
	kind int
	slot int
	seen []bool
	isF  []bool
	ints []int64
	fls  []float64
	cnt  []int64
	best []datum.Value
}

// newColAgg compiles one aggregate call; ok=false means the call has no
// kernel (a DBC aggregate).
func newColAgg(name string, slot int) (*colAgg, bool) {
	kind := 0
	switch name {
	case "COUNT":
		kind = aggCount
	case "SUM":
		kind = aggSum
	case "AVG":
		kind = aggAvg
	case "MIN":
		kind = aggMin
	case "MAX":
		kind = aggMax
	default:
		return nil, false
	}
	return &colAgg{kind: kind, slot: slot}, true
}

func (a *colAgg) reset() {
	a.seen = a.seen[:0]
	a.isF = a.isF[:0]
	a.ints = a.ints[:0]
	a.fls = a.fls[:0]
	a.cnt = a.cnt[:0]
	clear(a.best)
	a.best = a.best[:0]
}

// grow ensures state exists for n groups.
func (a *colAgg) grow(n int) {
	switch a.kind {
	case aggCount:
		for len(a.cnt) < n {
			a.cnt = append(a.cnt, 0)
		}
	case aggSum:
		for len(a.ints) < n {
			a.ints = append(a.ints, 0)
			a.fls = append(a.fls, 0)
			a.seen = append(a.seen, false)
			a.isF = append(a.isF, false)
		}
	case aggAvg:
		for len(a.fls) < n {
			a.fls = append(a.fls, 0)
			a.cnt = append(a.cnt, 0)
		}
	default:
		for len(a.best) < n {
			a.best = append(a.best, datum.Null)
			a.seen = append(a.seen, false)
		}
	}
}

// update implements batchAgg.
func (a *colAgg) update(_ *Ctx, b *datum.ColBatch, gis []int) error {
	v := &b.Vecs[a.slot]
	n, sel := b.Len(), b.Sel
	if v.Boxed == nil {
		switch {
		case a.kind == aggCount:
			a.countKernel(v.Nulls, n, sel, gis)
			return nil
		case a.kind == aggSum && v.Typ == datum.TInt:
			a.sumIntKernel(v.Ints, v.Nulls, n, sel, gis)
			return nil
		case a.kind == aggSum && v.Typ == datum.TFloat:
			a.sumFloatKernel(v.Floats, v.Nulls, n, sel, gis)
			return nil
		case a.kind == aggAvg && v.Typ == datum.TInt:
			a.avgIntKernel(v.Ints, v.Nulls, n, sel, gis)
			return nil
		case a.kind == aggAvg && v.Typ == datum.TFloat:
			a.avgFloatKernel(v.Floats, v.Nulls, n, sel, gis)
			return nil
		}
	}
	// Generic path: MIN/MAX, boxed vectors, unexpected lane/kind pairs.
	j := -1
	return b.EachLive(func(i int) error {
		j++
		return a.addValue(gis[j], v.ValueAt(i))
	})
}

func (a *colAgg) countKernel(nulls datum.NullBitmap, n int, sel, gis []int) {
	j := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) {
				a.cnt[gis[j]]++
			}
			j++
		}
		return
	}
	for _, i := range sel {
		if !nulls.Get(i) {
			a.cnt[gis[j]]++
		}
		j++
	}
}

func (a *colAgg) sumIntKernel(vals []int64, nulls datum.NullBitmap, n int, sel, gis []int) {
	j := 0
	add := func(i, gi int) {
		if !nulls.Get(i) {
			a.seen[gi] = true
			if a.isF[gi] {
				a.fls[gi] += float64(vals[i])
			} else {
				a.ints[gi] += vals[i]
			}
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			add(i, gis[j])
			j++
		}
		return
	}
	for _, i := range sel {
		add(i, gis[j])
		j++
	}
}

func (a *colAgg) sumFloatKernel(vals []float64, nulls datum.NullBitmap, n int, sel, gis []int) {
	j := 0
	add := func(i, gi int) {
		if !nulls.Get(i) {
			a.seen[gi] = true
			if !a.isF[gi] {
				a.isF[gi] = true
				a.fls[gi] = float64(a.ints[gi])
			}
			a.fls[gi] += vals[i]
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			add(i, gis[j])
			j++
		}
		return
	}
	for _, i := range sel {
		add(i, gis[j])
		j++
	}
}

func (a *colAgg) avgIntKernel(vals []int64, nulls datum.NullBitmap, n int, sel, gis []int) {
	j := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) {
				gi := gis[j]
				a.fls[gi] += float64(vals[i])
				a.cnt[gi]++
			}
			j++
		}
		return
	}
	for _, i := range sel {
		if !nulls.Get(i) {
			gi := gis[j]
			a.fls[gi] += float64(vals[i])
			a.cnt[gi]++
		}
		j++
	}
}

func (a *colAgg) avgFloatKernel(vals []float64, nulls datum.NullBitmap, n int, sel, gis []int) {
	j := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) {
				gi := gis[j]
				a.fls[gi] += vals[i]
				a.cnt[gi]++
			}
			j++
		}
		return
	}
	for _, i := range sel {
		if !nulls.Get(i) {
			gi := gis[j]
			a.fls[gi] += vals[i]
			a.cnt[gi]++
		}
		j++
	}
}

// addValue folds one boxed value, replicating the AggState.Add methods.
func (a *colAgg) addValue(gi int, v datum.Value) error {
	switch a.kind {
	case aggCount:
		if !v.IsNull() {
			a.cnt[gi]++
		}
	case aggSum:
		if v.IsNull() {
			return nil
		}
		a.seen[gi] = true
		if v.Type() == datum.TFloat || a.isF[gi] {
			if !a.isF[gi] {
				a.isF[gi] = true
				a.fls[gi] = float64(a.ints[gi])
			}
			a.fls[gi] += v.Float()
		} else {
			a.ints[gi] += v.Int()
		}
	case aggAvg:
		if v.IsNull() {
			return nil
		}
		a.fls[gi] += v.Float()
		a.cnt[gi]++
	default: // aggMin, aggMax
		if v.IsNull() {
			return nil
		}
		if !a.seen[gi] {
			a.seen[gi] = true
			a.best[gi] = v
			return nil
		}
		c, ok := datum.Compare(v, a.best[gi])
		if !ok {
			return fmt.Errorf("expr: MIN/MAX over incomparable values")
		}
		if a.kind == aggMin && c < 0 || a.kind == aggMax && c > 0 {
			a.best[gi] = v
		}
	}
	return nil
}

// result boxes the final value for group gi, mirroring AggState.Result.
func (a *colAgg) result(gi int) datum.Value {
	switch a.kind {
	case aggCount:
		return datum.NewInt(a.cnt[gi])
	case aggSum:
		if !a.seen[gi] {
			return datum.Null
		}
		if a.isF[gi] {
			return datum.NewFloat(a.fls[gi])
		}
		return datum.NewInt(a.ints[gi])
	case aggAvg:
		if a.cnt[gi] == 0 {
			return datum.Null
		}
		return datum.NewFloat(a.fls[gi] / float64(a.cnt[gi]))
	}
	if !a.seen[gi] {
		return datum.Null
	}
	return a.best[gi]
}
