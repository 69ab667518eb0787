package optimizer

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/qgm"
)

// BuiltinSTARs returns the base STAR array. The paper reports that all
// R* strategies plus several new ones fit "in under 20 rules"; this
// array reproduces that economy — see TestSTARCountUnder20.
//
// Grammar sketch (nonterminals are STAR names):
//
//	PLAN(box)      → SelectPlan | GroupByPlan | SetOpPlan | OuterJoinPlan
//	               | ValuesPlan | TableFnPlan | ChoosePlan | RecUnionPlan
//	               | DMLPlan | BasePlan
//	ACCESS(quant)  → TableScan | IndexScan* | Derived | RecRef
//	JOIN(l, r, p)  → NestedLoop | HashJoin | MergeJoin(GLUE ...)
//	GLUE(plans, o) → AlreadyOrdered | AddSort
func BuiltinSTARs() []*STAR {
	return []*STAR{
		{Name: "PLAN", Alternatives: []*Alternative{
			{Name: "Select", Condition: boxKind(qgm.KindSelect), Build: buildSelect},
			{Name: "GroupBy", Condition: boxKind(qgm.KindGroupBy), Build: buildGroupBy},
			{Name: "SetOp", Condition: func(ctx *Ctx, a Args) bool {
				switch a.Box.Kind {
				case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
					return !a.Box.Recursive
				}
				return false
			}, Build: buildSetOp},
			{Name: "RecUnion", Condition: func(ctx *Ctx, a Args) bool {
				return a.Box.Kind == qgm.KindUnion && a.Box.Recursive
			}, Build: buildRecUnion},
			{Name: "OuterJoin", Condition: boxKind(qgm.KindOuterJoin), Build: buildOuterJoin},
			{Name: "Values", Condition: boxKind(qgm.KindValues), Build: buildValues},
			{Name: "TableFn", Condition: boxKind(qgm.KindTableFn), Build: buildTableFn},
			{Name: "Choose", Condition: boxKind(qgm.KindChoose), Build: buildChoose},
			{Name: "Base", Condition: boxKind(qgm.KindBase), Build: buildBareBase},
			{Name: "DML", Condition: func(ctx *Ctx, a Args) bool {
				switch a.Box.Kind {
				case qgm.KindInsert, qgm.KindUpdate, qgm.KindDelete:
					return true
				}
				return false
			}, Build: buildDML},
		}},
		{Name: "ACCESS", Alternatives: []*Alternative{
			{Name: "TableScan", Rank: 1,
				Condition: func(ctx *Ctx, a Args) bool { return a.Quant.Input.Kind == qgm.KindBase },
				Build:     buildTableScan},
			{Name: "IndexScan", Rank: 2,
				Condition: func(ctx *Ctx, a Args) bool {
					return a.Quant.Input.Kind == qgm.KindBase && len(a.Quant.Input.Table.Indexes) > 0
				},
				Build: buildIndexScans},
			{Name: "Derived", Rank: 1,
				Condition: func(ctx *Ctx, a Args) bool {
					b := a.Quant.Input
					return b.Kind != qgm.KindBase && !ctx.Opt.inProgress[b]
				},
				Build: buildDerivedAccess},
			{Name: "RecRef", Rank: 1,
				Condition: func(ctx *Ctx, a Args) bool {
					b := a.Quant.Input
					return b.Recursive && ctx.Opt.inProgress[b]
				},
				Build: buildRecRef},
		}},
		{Name: "JOIN", Alternatives: []*Alternative{
			{Name: "NestedLoop", Rank: 1, Build: buildNLJoin},
			{Name: "HashJoin", Rank: 1,
				Condition: hasEquiPred,
				Build:     buildHashJoin},
			{Name: "MergeJoin", Rank: 2,
				// The merge executor implements only the regular kind;
				// outer joins use the nested-loop or hash methods.
				Condition: func(ctx *Ctx, a Args) bool {
					if a.JoinKind != "" && a.JoinKind != plan.KindRegular {
						return false
					}
					return hasEquiPred(ctx, a)
				},
				Build: buildMergeJoin},
		}},
		{Name: "GLUE", Alternatives: []*Alternative{
			{Name: "AlreadyOrdered", Rank: 1, Build: func(ctx *Ctx, a Args) ([]*plan.Node, error) {
				if p := cheapestWithOrder(a.Plans, a.ReqOrder, a.eq); p != nil {
					return ctx.Opt.work().one(p), nil
				}
				return nil, nil
			}, Price: func(ctx *Ctx, a Args) (plan.Props, bool) {
				if p := cheapestWithOrder(a.Plans, a.ReqOrder, a.eq); p != nil {
					return p.Props, true
				}
				return plan.Props{}, false
			}},
			{Name: "AddSort", Rank: 1, Build: func(ctx *Ctx, a Args) ([]*plan.Node, error) {
				p := cheapest(a.Plans)
				if p == nil || a.Kept.Dominates(costSort(p.Props, a.ReqOrder), p.Cols) {
					return nil, nil // an already-ordered plan is no dearer
				}
				w := ctx.Opt.work()
				return w.one(w.sort(p, a.ReqOrder)), nil
			}, Price: func(ctx *Ctx, a Args) (plan.Props, bool) {
				if p := cheapest(a.Plans); p != nil {
					return costSort(p.Props, a.ReqOrder), true
				}
				return plan.Props{}, false
			}},
		}},
	}
}

func boxKind(kind string) func(*Ctx, Args) bool {
	return func(ctx *Ctx, a Args) bool { return a.Box.Kind == kind }
}

// ---------------------------------------------------------------------
// Access alternatives

// pushableScanPreds splits single-quantifier predicates into those the
// storage scan can evaluate (the paper: functions may be invoked "in
// the predicate evaluator" to reduce data returned) and residuals.
func pushableScanPreds(preds []expr.Expr) (push, residual []expr.Expr) {
	for _, p := range preds {
		if expr.HasSubplan(p) {
			residual = append(residual, p)
			continue
		}
		push = append(push, p)
	}
	return push, residual
}

func buildTableScan(ctx *Ctx, a Args) ([]*plan.Node, error) {
	q := a.Quant
	t := q.Input.Table
	push, residual := pushableScanPreds(a.Preds)
	cols := make([]plan.ColRef, len(t.Cols))
	types := make([]datum.TypeID, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = plan.ColRef{QID: q.QID, Ord: i}
		types[i] = c.Type
	}
	props := ctx.Opt.costScan(t, push)
	n := &plan.Node{
		Op:    plan.OpScan,
		Table: t,
		QID:   q.QID,
		Cols:  cols,
		Types: types,
		Preds: push,
		Props: props,
	}
	return []*plan.Node{filterNode(ctx.Opt, n, residual)}, nil
}

// sargFor matches predicates against an index's key columns and builds
// inclusive lo/hi bound expressions. It recognizes equality prefixes
// plus one range predicate on the next key column (ordered methods),
// and full windows for spatial methods (every key column independently
// range-bound) — how Corona "recognizes when this access method is
// useful for a query".
func sargFor(ix *qgmIndex, qid int, preds []expr.Expr) (lo, hi []expr.Expr, used map[expr.Expr]bool, selectivity float64, ok bool) {
	used = map[expr.Expr]bool{}
	// For each key column, find bounding expressions.
	type bounds struct {
		lo, hi expr.Expr
		eq     bool
	}
	per := make([]bounds, len(ix.KeyCols))
	for _, p := range preds {
		cmp, isCmp := p.(*expr.Cmp)
		if !isCmp || expr.HasSubplan(p) {
			continue
		}
		col, other, op := sargSides(cmp, qid)
		if col == nil {
			continue
		}
		for ki, ord := range ix.KeyCols {
			if col.Ord != ord {
				continue
			}
			switch op {
			case expr.OpEq:
				per[ki] = bounds{lo: other, hi: other, eq: true}
				used[p] = true
			case expr.OpGe, expr.OpGt:
				if per[ki].lo == nil && !per[ki].eq {
					per[ki].lo = other
					used[p] = true
				}
			case expr.OpLe, expr.OpLt:
				if per[ki].hi == nil && !per[ki].eq {
					per[ki].hi = other
					used[p] = true
				}
			}
		}
	}
	if ix.Caps.Spatial {
		// Window query: every dimension must have at least one bound.
		anyBound := false
		for _, b := range per {
			if b.lo != nil || b.hi != nil {
				anyBound = true
			}
		}
		if !anyBound {
			return nil, nil, nil, 0, false
		}
		for _, b := range per {
			lo = append(lo, orNullExpr(b.lo))
			hi = append(hi, orNullExpr(b.hi))
		}
		return lo, hi, used, 0.1, true
	}
	// Ordered method: equality prefix, then optional range column.
	kPrefix := 0
	for kPrefix < len(per) && per[kPrefix].eq {
		kPrefix++
	}
	sel := 1.0
	if kPrefix == 0 {
		if len(per) == 0 || (per[0].lo == nil && per[0].hi == nil) {
			return nil, nil, nil, 0, false
		}
		// Pure range on first column.
		lo = []expr.Expr{orNullExpr(per[0].lo)}
		hi = []expr.Expr{orNullExpr(per[0].hi)}
		if per[0].lo != nil && per[0].hi != nil {
			sel = defaultRangeSel / 2
		} else {
			sel = defaultRangeSel
		}
		return lo, hi, used, sel, true
	}
	for i := 0; i < kPrefix; i++ {
		lo = append(lo, per[i].lo)
		hi = append(hi, per[i].hi)
		sel *= defaultEqSel
	}
	if kPrefix < len(per) && (per[kPrefix].lo != nil || per[kPrefix].hi != nil) {
		lo = append(lo, orNullExpr(per[kPrefix].lo))
		hi = append(hi, orNullExpr(per[kPrefix].hi))
		sel *= defaultRangeSel
	}
	return lo, hi, used, sel, true
}

// orNullExpr stands in for an unbounded side (NULL sorts first, so a
// NULL lo bound means "from the start"; exec interprets NULL hi as
// unbounded).
func orNullExpr(e expr.Expr) expr.Expr {
	if e == nil {
		return expr.NewConst(datum.Null)
	}
	return e
}

// sargSides decomposes cmp into (indexed column of qid, other side,
// operator-with-column-on-left), requiring the other side to be free of
// qid (constants, parameters, or correlation columns).
func sargSides(cmp *expr.Cmp, qid int) (*expr.Col, expr.Expr, expr.CmpOp) {
	if c, ok := cmp.L.(*expr.Col); ok && c.QID == qid && !expr.RefersTo(cmp.R, qid) {
		return c, cmp.R, cmp.Op
	}
	if c, ok := cmp.R.(*expr.Col); ok && c.QID == qid && !expr.RefersTo(cmp.L, qid) {
		return c, cmp.L, cmp.Op.Flip()
	}
	return nil, nil, 0
}

// qgmIndex is a narrow view of catalog.Index used by sargFor.
type qgmIndex struct {
	KeyCols []int
	Caps    struct {
		Spatial bool
		Ordered bool
	}
}

func buildIndexScans(ctx *Ctx, a Args) ([]*plan.Node, error) {
	q := a.Quant
	t := q.Input.Table
	var out []*plan.Node
	cols := make([]plan.ColRef, len(t.Cols))
	types := make([]datum.TypeID, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = plan.ColRef{QID: q.QID, Ord: i}
		types[i] = c.Type
	}
	for _, ix := range t.Indexes {
		vix := &qgmIndex{KeyCols: ix.KeyCols}
		vix.Caps.Spatial = ix.Caps.Spatial
		vix.Caps.Ordered = ix.Caps.Ordered
		lo, hi, used, matchSel, ok := sargFor(vix, q.QID, a.Preds)
		if ok {
			// Refine the match estimate with column statistics: the
			// index qualifies exactly the rows its used predicates
			// select.
			var usedPreds []expr.Expr
			for _, p := range a.Preds {
				if used[p] {
					usedPreds = append(usedPreds, p)
				}
			}
			if len(usedPreds) > 0 {
				matchSel = ctx.Opt.conjunctSelectivity(usedPreds)
			}
		}
		var residual []expr.Expr
		if ok {
			for _, p := range a.Preds {
				if !used[p] || rangeBound(p) {
					// Re-check range predicates (inclusive index bounds
					// over-approximate strict comparisons).
					if !used[p] || strictCmp(p) {
						residual = append(residual, p)
					}
				}
			}
		} else if ix.Caps.Ordered {
			// Full ordered scan: useful only for its order property.
			lo, hi = nil, nil
			matchSel = 1.0
			residual = a.Preds
		} else {
			continue
		}
		props := ctx.Opt.costIndexScan(t, matchSel, residual, len(ix.KeyCols))
		if ix.Caps.Ordered {
			for _, ord := range ix.KeyCols {
				props.Order = append(props.Order, plan.SortKey{Slot: ord})
			}
		}
		out = append(out, &plan.Node{
			Op:     plan.OpIndex,
			Table:  t,
			Index:  ix,
			QID:    q.QID,
			Cols:   cols,
			Types:  types,
			LoVals: lo,
			HiVals: hi,
			Preds:  residual,
			Props:  props,
		})
	}
	return out, nil
}

// rangeBound reports whether p is a range comparison (kept as residual
// to enforce strict bounds over inclusive index ranges).
func rangeBound(p expr.Expr) bool {
	cmp, ok := p.(*expr.Cmp)
	if !ok {
		return false
	}
	switch cmp.Op {
	case expr.OpLt, expr.OpGt, expr.OpLe, expr.OpGe:
		return true
	}
	return false
}

func strictCmp(p expr.Expr) bool {
	cmp, ok := p.(*expr.Cmp)
	if !ok {
		return false
	}
	return cmp.Op == expr.OpLt || cmp.Op == expr.OpGt
}

func buildDerivedAccess(ctx *Ctx, a Args) ([]*plan.Node, error) {
	inner, err := ctx.Opt.PlanBox(a.Quant.Input)
	if err != nil {
		return nil, err
	}
	n := accessNode(a.Quant, inner)
	return []*plan.Node{filterNode(ctx.Opt, n, a.Preds)}, nil
}

func buildRecRef(ctx *Ctx, a Args) ([]*plan.Node, error) {
	q := a.Quant
	cols := make([]plan.ColRef, len(q.Input.Head))
	types := make([]datum.TypeID, len(q.Input.Head))
	for i, hc := range q.Input.Head {
		cols[i] = plan.ColRef{QID: q.QID, Ord: i}
		types[i] = hc.Type
	}
	n := &plan.Node{
		Op:       plan.OpRecRef,
		QID:      q.QID,
		RecBoxID: q.Input.ID,
		Cols:     cols,
		Types:    types,
		Props: plan.Props{
			Rows: 100, // refined after the seed is planned
			Cost: 1,
		},
	}
	return []*plan.Node{filterNode(ctx.Opt, n, a.Preds)}, nil
}

// ---------------------------------------------------------------------
// Join alternatives

// joinKeys is a JOIN evaluation's equi-join analysis against its
// reference inputs l = cheapest(Left) and r = cheapest(Right); the key
// slots and orders come from the slabs slots and orders (nil: the heap).
type joinKeys struct {
	left, right    []*plan.Node // the Args analyzed
	preds          []expr.Expr
	l, r           *plan.Node
	ls, rs         []int
	lorder, rorder []plan.SortKey // the merge join's required orders
	residual       []expr.Expr
	slots          *slab[int]
	orders         *slab[plan.SortKey]
}

// equiKeys analyzes a JOIN evaluation once for all its alternatives,
// in the memo the enumerator allots (other callers' Args: afresh). The
// memo answers only for the very slices it analyzed, in either
// orientation, so an alternative that evaluates JOIN on a modified copy
// of its Args gets its own.
func equiKeys(a Args) *joinKeys {
	k := a.keys
	if k == nil {
		k = &joinKeys{}
	} else if k.l != nil && same(k.preds, a.Preds) {
		if same(k.left, a.Left) && same(k.right, a.Right) {
			return k
		}
		if same(k.left, a.Right) && same(k.right, a.Left) {
			// The split the memo holds, reversed: the sides are disjoint,
			// so each key pair swaps its slots and the residual stays.
			k.left, k.right, k.l, k.r = k.right, k.left, k.r, k.l
			k.ls, k.rs, k.lorder, k.rorder = k.rs, k.ls, k.rorder, k.lorder
			return k
		}
	}
	*k = joinKeys{left: a.Left, right: a.Right, preds: a.Preds, l: cheapest(a.Left), r: cheapest(a.Right),
		slots: k.slots, orders: k.orders}
	n := len(a.Preds)
	slots, orders := k.slots.alloc(2*n), k.orders.alloc(2*n)
	k.ls, k.rs, k.lorder, k.rorder = slots[:0:n], slots[n:n], orders[:0:n], orders[n:n]
	for _, p := range a.Preds {
		// Test the Col = Col shape first: it holds no subplan.
		var lc, rc *expr.Col
		if cmp, ok := p.(*expr.Cmp); ok && cmp.Op == expr.OpEq && k.l != nil && k.r != nil {
			lc, _ = cmp.L.(*expr.Col)
			rc, _ = cmp.R.(*expr.Col)
		}
		if lc != nil && rc != nil {
			ls, rs := k.l.SlotOf(lc.QID, lc.Ord), k.r.SlotOf(rc.QID, rc.Ord)
			if ls < 0 || rs < 0 {
				ls, rs = k.l.SlotOf(rc.QID, rc.Ord), k.r.SlotOf(lc.QID, lc.Ord)
			}
			if ls >= 0 && rs >= 0 {
				k.ls, k.rs = append(k.ls, ls), append(k.rs, rs)
				k.lorder = append(k.lorder, plan.SortKey{Slot: ls})
				k.rorder = append(k.rorder, plan.SortKey{Slot: rs})
				continue
			}
		}
		k.residual = append(k.residual, p)
	}
	return k
}

// same reports whether x and y are one slice, not merely equal ones.
func same[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

func hasEquiPred(ctx *Ctx, a Args) bool {
	return len(equiKeys(a).ls) > 0
}

func joinKind(a Args) string {
	if a.JoinKind == "" {
		return plan.KindRegular
	}
	return a.JoinKind
}

// offer is a JOIN candidate priced but not yet built, or, with node
// set, one built already; cols is the layout its order slots index.
type offer struct {
	node     *plan.Node
	props    plan.Props
	cols     []plan.ColRef
	op, kind string
	in       [2]*plan.Node // a merge join's reference inputs until glued
	preds    []expr.Expr   // NLJN: every predicate; HSJN, SMJN: the residual
	ls, rs   []int
	// A merge join's GLUE, evaluated only if it survives: for each
	// input, the plans laid out like it (nil once glued), the order
	// required of them and their equalities.
	plans  [2][]*plan.Node
	orders [2][]plan.SortKey
	eqs    [2]*equalities
}

// offer appends o to the candidates unless they dominate it; with no
// pricing hint (a nil c) it builds o at once.
func (c *Candidates) offer(ctx *Ctx, o offer) ([]*plan.Node, error) {
	o.cols = o.in[0].Cols
	if c == nil {
		n, err := build(ctx, &o)
		return []*plan.Node{n}, err
	}
	if !c.Dominates(o.props, o.cols) {
		c.offers = append(c.offers, o)
	}
	return nil, nil
}

// build makes candidate o's node, in the scratch: the one path that
// builds join nodes.
func build(ctx *Ctx, o *offer) (*plan.Node, error) {
	if o.node != nil {
		return o.node, nil
	}
	if err := glue(ctx, o); err != nil {
		return nil, err
	}
	l, r := o.in[0], o.in[1]
	if l == nil || r == nil {
		return nil, fmt.Errorf("optimizer: GLUE built no input for a merge join it priced")
	}
	w := ctx.Opt.work()
	n := w.node()
	*n = plan.Node{Op: o.op, Inputs: w.ptrs.alloc(2), Cols: concat(&w.cols, l.Cols, r.Cols),
		Types: concat(&w.types, l.Types, r.Types), JoinKind: o.kind, EquiLeft: o.ls, EquiRight: o.rs,
		JoinPred: expr.AndAll(o.preds), SortKeys: o.orders[0], Props: o.props}
	n.Inputs[0], n.Inputs[1] = l, r
	return n, nil
}

// concat returns x and y end to end in s.
func concat[T any](s *slab[T], x, y []T) []T {
	out := s.alloc(len(x) + len(y))
	copy(out[copy(out, x):], y)
	return out
}

// glue evaluates GLUE on merge join o's inputs, unless they are glued
// already; AddSort prices against AlreadyOrdered. An input GLUE yields
// no plan for is left nil.
func glue(ctx *Ctx, o *offer) error {
	if o.plans[0] == nil {
		return nil
	}
	g := ctx.Opt.candidates()
	defer ctx.Opt.release(g)
	for i := range o.in {
		g.reset(o.eqs[i])
		plans, err := ctx.Evaluate("GLUE", Args{Plans: o.plans[i], ReqOrder: o.orders[i], eq: o.eqs[i], Kept: g})
		if err != nil {
			return err
		}
		o.in[i], o.plans[i] = cheapest(plans), nil
	}
	return nil
}

func buildNLJoin(ctx *Ctx, a Args) ([]*plan.Node, error) {
	var out []*plan.Node
	r := cheapest(a.Right)
	if r == nil {
		return nil, nil
	}
	sel := ctx.Opt.conjunctSelectivity(a.Preds)
	for _, l := range a.Left {
		n, err := a.Kept.offer(ctx, offer{props: ctx.Opt.costNLJoin(l.Props, r.Props, sel, len(a.Preds)),
			op: plan.OpNLJoin, kind: joinKind(a), in: [2]*plan.Node{l, r}, preds: a.Preds})
		if err != nil {
			return nil, err
		}
		out = append(out, n...)
	}
	return out, nil
}

func buildHashJoin(ctx *Ctx, a Args) ([]*plan.Node, error) {
	k := equiKeys(a)
	if len(k.ls) == 0 {
		return nil, nil
	}
	sel := ctx.Opt.conjunctSelectivity(a.Preds)
	return a.Kept.offer(ctx, offer{props: ctx.Opt.costFilter(ctx.Opt.costHashJoin(k.l.Props, k.r.Props, sel), k.residual),
		op: plan.OpHSJoin, kind: joinKind(a), in: [2]*plan.Node{k.l, k.r}, preds: k.residual, ls: k.ls, rs: k.rs})
}

// sameLayout keeps the plans whose columns sit in ref's slots, so that
// key slots computed on ref name the same columns in each of them.
func sameLayout(plans []*plan.Node, ref *plan.Node) []*plan.Node {
	differs := func(p *plan.Node) bool { return !slices.Equal(p.Cols, ref.Cols) }
	if !slices.ContainsFunc(plans, differs) {
		return plans
	}
	return slices.DeleteFunc(slices.Clone(plans), differs)
}

func buildMergeJoin(ctx *Ctx, a Args) ([]*plan.Node, error) {
	k := equiKeys(a)
	if len(k.ls) == 0 {
		return nil, nil
	}
	// "The merge join requires its input table streams to be ordered by
	// the join columns. Required properties are achieved by additional
	// glue STARs." The key slots are the reference inputs', so GLUE
	// sees only the plans laid out like them. It is priced here and
	// evaluated only for a merge join that survives.
	o := offer{op: plan.OpSMJoin, kind: joinKind(a), in: [2]*plan.Node{k.l, k.r}, preds: k.residual, ls: k.ls, rs: k.rs,
		plans:  [2][]*plan.Node{sameLayout(a.Left, k.l), sameLayout(a.Right, k.r)},
		orders: [2][]plan.SortKey{k.lorder, k.rorder}, eqs: [2]*equalities{a.leftEq, a.rightEq}}
	lp, lok := ctx.Price("GLUE", Args{Plans: o.plans[0], ReqOrder: k.lorder, eq: a.leftEq})
	rp, rok := ctx.Price("GLUE", Args{Plans: o.plans[1], ReqOrder: k.rorder, eq: a.rightEq})
	if !lok || !rok {
		// A GLUE alternative has no Price: glue now, price what it built.
		if err := glue(ctx, &o); err != nil || o.in[0] == nil || o.in[1] == nil {
			return nil, err
		}
		lp, rp = o.in[0].Props, o.in[1].Props
	}
	o.props = ctx.Opt.costMergeJoin(lp, rp, ctx.Opt.conjunctSelectivity(a.Preds), k.lorder)
	return a.Kept.offer(ctx, o)
}

// ---------------------------------------------------------------------
// Box plan alternatives

func buildSelect(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	base, err := o.planSelectBody(ctx, b)
	if err != nil {
		return nil, err
	}
	// Project the head (compiling any deferred subqueries inside head
	// expressions).
	cols, types := boxCols(b)
	exprs := make([]expr.Expr, len(b.Head))
	for i, hc := range b.Head {
		he, err := o.compileSubplans(hc.Expr, b)
		if err != nil {
			return nil, err
		}
		exprs[i] = he
	}
	props := plan.Props{
		Rows: base.Props.Rows,
		Cost: base.Props.Cost + base.Props.Rows*float64(len(exprs))*costRowCPU,
	}
	n := &plan.Node{
		Op:     plan.OpProject,
		Inputs: []*plan.Node{base},
		Cols:   cols,
		Types:  types,
		Exprs:  exprs,
		Props:  props,
	}
	// Order survives projection when the sort columns are projected
	// plainly; conservatively drop it (ORDER BY adds its own SORT).
	if b.Distinct == qgm.EnforceDistinct {
		n = &plan.Node{
			Op:     plan.OpDistinct,
			Inputs: []*plan.Node{n},
			Cols:   cols,
			Types:  types,
			Props:  costDistinct(n.Props),
		}
	}
	return []*plan.Node{n}, nil
}

// planSelectBody joins a SELECT box's setformers, applies its subquery
// quantifiers, and applies residual predicates; the head projection is
// added by buildSelect.
func (o *Optimizer) planSelectBody(ctx *Ctx, b *qgm.Box) (*plan.Node, error) {
	allSetformers := b.Setformers()
	subqs := b.SubqueryQuants()
	subqQID := map[int]bool{}
	for _, q := range subqs {
		subqQID[q.QID] = true
	}
	bQIDs := map[int]bool{}
	for _, q := range b.Quants {
		bQIDs[q.QID] = true
	}

	// Partition setformers into independent ones (join-enumerable) and
	// lateral ones: a setformer whose derived table references sibling
	// quantifiers of this box (a correlated table expression, or the
	// intermediate state after Rule 1 fires on a correlated subquery)
	// must be applied per outer tuple, like a subquery quantifier.
	var setformers, laterals []*qgm.Quantifier
	lateralQID := map[int]bool{}
	for _, q := range allSetformers {
		isLateral := false
		if q.Input.Kind != qgm.KindBase {
			for _, ref := range foreignCorrCols(q.Input, b) {
				if bQIDs[ref.QID] {
					isLateral = true
					break
				}
			}
		}
		if isLateral {
			laterals = append(laterals, q)
			lateralQID[q.QID] = true
		} else {
			setformers = append(setformers, q)
		}
	}

	// Classify predicates.
	scanPreds := map[int][]expr.Expr{}
	var joinPreds, residual, pendingLateral []expr.Expr
	subqPreds := map[int][]expr.Expr{} // keyed by subquery quantifier
	for _, p := range b.Preds {
		if expr.HasSubplan(p.Expr) {
			residual = append(residual, p.Expr)
			continue
		}
		var subRefs []int
		nSet := 0
		oneSet := -1
		touchesLateral := false
		for _, q := range b.Quants {
			if !expr.RefersTo(p.Expr, q.QID) {
				continue // foreign references are correlation
			}
			switch qid := q.QID; {
			case subqQID[qid]:
				subRefs = append(subRefs, qid)
			case lateralQID[qid]:
				touchesLateral = true
			default:
				nSet++
				oneSet = qid
			}
		}
		switch {
		case touchesLateral:
			pendingLateral = append(pendingLateral, p.Expr)
		case len(subRefs) == 1:
			subqPreds[subRefs[0]] = append(subqPreds[subRefs[0]], p.Expr)
		case len(subRefs) > 1:
			residual = append(residual, p.Expr)
		case nSet == 1:
			scanPreds[oneSet] = append(scanPreds[oneSet], p.Expr)
		case nSet == 0:
			residual = append(residual, p.Expr) // constant or pure correlation
		default:
			joinPreds = append(joinPreds, p.Expr)
		}
	}
	joinPreds = append(joinPreds, impliedEqualities(joinPreds)...)

	var cur *plan.Node
	if len(setformers) == 0 {
		// SELECT without FROM: one empty row.
		cur = &plan.Node{
			Op:    plan.OpValues,
			Rows:  [][]expr.Expr{{}},
			Props: plan.Props{Rows: 1, Cost: 0},
		}
	} else {
		joined, err := o.enumerateJoins(ctx, setformers, scanPreds, joinPreds)
		if err != nil {
			return nil, err
		}
		cur = cheapest(joined)
		if cur == nil {
			return nil, fmt.Errorf("optimizer: join enumeration produced no plan for box %d", b.ID)
		}
	}

	// Apply lateral setformers in dependency order.
	applied := map[int]bool{}
	for _, q := range setformers {
		applied[q.QID] = true
	}
	available := func(refs []plan.ColRef, self int) bool {
		for _, r := range refs {
			if bQIDs[r.QID] && r.QID != self && !applied[r.QID] {
				return false
			}
		}
		return true
	}
	remaining := append([]*qgm.Quantifier(nil), laterals...)
	for len(remaining) > 0 {
		progressed := false
		for i, q := range remaining {
			corr := foreignCorrCols(q.Input, b)
			if !available(corr, q.QID) {
				continue
			}
			inner, err := o.PlanBox(q.Input)
			if err != nil {
				return nil, err
			}
			cols := append([]plan.ColRef(nil), cur.Cols...)
			types := append([]datum.TypeID(nil), cur.Types...)
			for hi, hc := range q.Input.Head {
				cols = append(cols, plan.ColRef{QID: q.QID, Ord: hi})
				types = append(types, hc.Type)
			}
			// Attach pending predicates now coverable.
			var preds []expr.Expr
			var still []expr.Expr
			for _, p := range pendingLateral {
				ok := true
				for _, lq := range b.Quants {
					if lq.QID != q.QID && !applied[lq.QID] && expr.RefersTo(p, lq.QID) {
						ok = false
						break
					}
				}
				if ok {
					preds = append(preds, p)
				} else {
					still = append(still, p)
				}
			}
			pendingLateral = still
			sel := o.conjunctSelectivity(preds)
			cur = &plan.Node{
				Op:       plan.OpSubq,
				Inputs:   []*plan.Node{cur, inner},
				Cols:     cols,
				Types:    types,
				JoinKind: plan.KindLateral,
				Preds:    preds,
				CorrCols: corr,
				QID:      q.QID,
				Props: plan.Props{
					Rows: math.Max(1, cur.Props.Rows*inner.Props.Rows*sel),
					Cost: cur.Props.Cost + cur.Props.Rows*(inner.Props.Cost*0.5+costRowCPU),
				},
			}
			applied[q.QID] = true
			remaining = append(remaining[:i], remaining[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return nil, fmt.Errorf("optimizer: cyclic lateral references in box %d", b.ID)
		}
	}
	residual = append(residual, pendingLateral...)

	// Apply subquery quantifiers (each a join of its own kind).
	for _, q := range subqs {
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		kind := plan.KindScalarSub
		switch q.Type {
		case qgm.QExists:
			kind = plan.KindExists
		case qgm.QAll:
			kind = plan.KindAll
		case qgm.QScalar:
			kind = plan.KindScalarSub
		default:
			kind = q.Type // custom set-predicate quantifier
		}
		corr := foreignCorrCols(q.Input, b)
		cols := cur.Cols
		types := cur.Types
		var preds []expr.Expr
		if q.Type == qgm.QScalar {
			// Scalar quantifiers append the (single-row) value; linking
			// predicates become residual filters above.
			for i, hc := range q.Input.Head {
				cols = append(append([]plan.ColRef(nil), cols...), plan.ColRef{QID: q.QID, Ord: i})
				types = append(append([]datum.TypeID(nil), types...), hc.Type)
			}
			residual = append(residual, subqPreds[q.QID]...)
		} else {
			preds = subqPreds[q.QID]
		}
		perRow := inner.Props.Cost
		if len(corr) == 0 {
			perRow = 0 // evaluated once, cached (evaluate-on-demand)
		}
		outRows := cur.Props.Rows * 0.5
		if q.Type == qgm.QScalar {
			outRows = cur.Props.Rows
		}
		props := plan.Props{
			Order: cur.Props.Order,
			Rows:  outRows,
			Cost:  cur.Props.Cost + inner.Props.Cost + cur.Props.Rows*(perRow*0.5+costRowCPU),
		}
		cur = &plan.Node{
			Op:       plan.OpSubq,
			Inputs:   []*plan.Node{cur, inner},
			Cols:     cols,
			Types:    types,
			JoinKind: kind,
			Negated:  q.Negated,
			SetPred:  q.SetPred,
			Preds:    preds,
			CorrCols: corr,
			QID:      q.QID,
			Props:    props,
		}
	}
	// Compile deferred subqueries (OR-of-subquery predicates) hiding
	// inside residual expressions, so the QES can install their
	// evaluate-on-demand closures.
	for i, r := range residual {
		nr, err := o.compileSubplans(r, b)
		if err != nil {
			return nil, err
		}
		residual[i] = nr
	}
	return filterNode(o, cur, residual), nil
}

// compileSubplans replaces translation-time DeferredSubquery payloads
// with compiled SubplanInfo payloads.
func (o *Optimizer) compileSubplans(e expr.Expr, b *qgm.Box) (expr.Expr, error) {
	var firstErr error
	out := expr.Transform(e, func(x expr.Expr) expr.Expr {
		sp, ok := x.(*expr.Subplan)
		if !ok {
			return x
		}
		ds, ok := sp.Aux.(*qgm.DeferredSubquery)
		if !ok {
			return x
		}
		inner, err := o.PlanBox(ds.Box)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return x
		}
		return &expr.Subplan{
			Label: sp.Label,
			Typ:   sp.Typ,
			Aux: &plan.SubplanInfo{
				Plan:     inner,
				Mode:     ds.Mode,
				Negated:  ds.Negated,
				Lhs:      ds.Lhs,
				CorrCols: foreignCorrCols(ds.Box, b),
			},
		}
	})
	return out, firstErr
}

func buildGroupBy(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	q := b.Quants[0]
	inner, err := o.PlanBox(q.Input)
	if err != nil {
		return nil, err
	}
	in := accessNode(q, inner)
	// Predicates parked on the group box (pushed by rewrite but not yet
	// migrated into the input) filter rows before grouping.
	var preds []expr.Expr
	for _, p := range b.Preds {
		preds = append(preds, p.Expr)
	}
	in = filterNode(o, in, preds)

	groupSlots := make([]int, len(b.GroupBy))
	for i, ge := range b.GroupBy {
		c, ok := ge.(*expr.Col)
		if !ok {
			return nil, fmt.Errorf("optimizer: non-column grouping expression %s", ge)
		}
		groupSlots[i] = in.SlotOf(c.QID, c.Ord)
		if groupSlots[i] < 0 {
			return nil, fmt.Errorf("optimizer: grouping column %s not in input", ge)
		}
	}
	var aggs []*expr.AggCall
	for _, hc := range b.Head[len(b.GroupBy):] {
		ac, ok := hc.Expr.(*expr.AggCall)
		if !ok {
			return nil, fmt.Errorf("optimizer: group head column %s is not an aggregate", hc.Name)
		}
		aggs = append(aggs, ac)
	}
	cols, types := boxCols(b)
	return []*plan.Node{{
		Op:        plan.OpGroup,
		Inputs:    []*plan.Node{in},
		Cols:      cols,
		Types:     types,
		GroupCols: groupSlots,
		Aggs:      aggs,
		Props:     costGroup(in.Props, len(groupSlots), len(aggs)),
	}}, nil
}

func buildSetOp(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	var ins []*plan.Node
	var props plan.Props
	for _, q := range b.Quants {
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		n := accessNode(q, inner)
		ins = append(ins, n)
		props.Cost += n.Props.Cost
		props.Rows += n.Props.Rows
	}
	op := map[string]string{
		qgm.KindUnion:     plan.OpUnion,
		qgm.KindIntersect: plan.OpInter,
		qgm.KindExcept:    plan.OpExcept,
	}[b.Kind]
	if !b.SetAll {
		props.Cost += props.Rows * costHashCPU
		props.Rows = math.Max(1, props.Rows*0.7)
	}
	cols, types := boxCols(b)
	return []*plan.Node{{
		Op:     op,
		Inputs: ins,
		Cols:   cols,
		Types:  types,
		All:    b.SetAll,
		Props:  props,
	}}, nil
}

func buildRecUnion(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	var seeds, recs []*plan.Node
	for _, q := range b.Quants {
		if subtreeReferences(q.Input, b) {
			continue
		}
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, accessNode(q, inner))
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("optimizer: recursive union %d has no seed branch", b.ID)
	}
	for _, q := range b.Quants {
		if !subtreeReferences(q.Input, b) {
			continue
		}
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		recs = append(recs, accessNode(q, inner))
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("optimizer: union %d marked recursive but has no recursive branch", b.ID)
	}
	cols, types := boxCols(b)
	seed := combineAll(seeds, cols, types)
	rec := combineAll(recs, cols, types)
	props := plan.Props{
		Rows: guessRecRows(seed) * 2,
		Cost: seed.Props.Cost + rec.Props.Cost*4,
	}
	return []*plan.Node{{
		Op:       plan.OpRecUnion,
		Inputs:   []*plan.Node{seed, rec},
		Cols:     cols,
		Types:    types,
		RecBoxID: b.ID,
		Props:    props,
	}}, nil
}

// combineAll unions multiple branch plans (ALL semantics; the fixpoint
// dedups).
func combineAll(ps []*plan.Node, cols []plan.ColRef, types []datum.TypeID) *plan.Node {
	if len(ps) == 1 {
		return ps[0]
	}
	var props plan.Props
	for _, p := range ps {
		props.Cost += p.Props.Cost
		props.Rows += p.Props.Rows
	}
	return &plan.Node{Op: plan.OpUnion, Inputs: ps, Cols: cols, Types: types, All: true, Props: props}
}

func buildOuterJoin(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	var preserved, inner []*qgm.Quantifier
	for _, q := range b.Quants {
		if q.Type == qgm.PreserveForeach {
			preserved = append(preserved, q)
		} else {
			inner = append(inner, q)
		}
	}
	if len(preserved) == 0 || len(inner) == 0 {
		return nil, fmt.Errorf("optimizer: outer join box %d needs PF and F sides", b.ID)
	}
	innerQID := map[int]bool{}
	for _, q := range inner {
		innerQID[q.QID] = true
	}
	// ON predicates referencing only the inner side may pre-filter it;
	// everything else stays in the join condition.
	scanPreds := map[int][]expr.Expr{}
	var joinPreds []expr.Expr
	var innerJoin []expr.Expr
	for _, p := range b.Preds {
		onlyInner := true
		n := 0
		one := -1
		for _, q := range b.Quants {
			if expr.RefersTo(p.Expr, q.QID) {
				n++
				one = q.QID
				onlyInner = onlyInner && innerQID[q.QID]
			}
		}
		switch {
		case onlyInner && n == 1:
			scanPreds[one] = append(scanPreds[one], p.Expr)
		case onlyInner:
			innerJoin = append(innerJoin, p.Expr)
		default:
			joinPreds = append(joinPreds, p.Expr)
		}
	}
	lplans, err := o.enumerateJoins(ctx, preserved, scanPreds, nil)
	if err != nil {
		return nil, err
	}
	rplans, err := o.enumerateJoins(ctx, inner, scanPreds, innerJoin)
	if err != nil {
		return nil, err
	}
	joins, err := ctx.Evaluate("JOIN", Args{
		Left: lplans, Right: rplans, Preds: joinPreds, JoinKind: plan.KindLeftOuter,
	})
	if err != nil {
		return nil, err
	}
	base := cheapest(joins)
	if base == nil {
		return nil, fmt.Errorf("optimizer: no outer join plan for box %d", b.ID)
	}
	cols, types := boxCols(b)
	exprs := make([]expr.Expr, len(b.Head))
	for i, hc := range b.Head {
		exprs[i] = hc.Expr
	}
	return []*plan.Node{{
		Op:     plan.OpProject,
		Inputs: []*plan.Node{base},
		Cols:   cols,
		Types:  types,
		Exprs:  exprs,
		Props:  plan.Props{Rows: base.Props.Rows, Cost: base.Props.Cost + base.Props.Rows*costRowCPU},
	}}, nil
}

func buildValues(ctx *Ctx, a Args) ([]*plan.Node, error) {
	b := a.Box
	cols, types := boxCols(b)
	return []*plan.Node{{
		Op:    plan.OpValues,
		Cols:  cols,
		Types: types,
		Rows:  b.Rows,
		Props: plan.Props{Rows: float64(len(b.Rows)), Cost: float64(len(b.Rows)) * costRowCPU},
	}}, nil
}

func buildTableFn(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	var ins []*plan.Node
	cost := 0.0
	for _, q := range b.Quants {
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		n := accessNode(q, inner)
		ins = append(ins, n)
		cost += n.Props.Cost
	}
	cols, types := boxCols(b)
	return []*plan.Node{{
		Op:      plan.OpTableFn,
		Inputs:  ins,
		Cols:    cols,
		Types:   types,
		TableFn: b.TableFn,
		TFArgs:  b.TFScalarArgs,
		Props:   plan.Props{Rows: 100, Cost: cost + 10},
	}}, nil
}

func buildChoose(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	cols, types := boxCols(b)
	// With guard conditions the CHOOSE survives into the plan: the
	// decision is made at runtime from host-language parameters.
	hasConds := false
	for _, c := range b.ChooseConds {
		if c != nil {
			hasConds = true
		}
	}
	if hasConds {
		var ins []*plan.Node
		var worst plan.Props
		for _, q := range b.Quants {
			inner, err := o.PlanBox(q.Input)
			if err != nil {
				return nil, err
			}
			ins = append(ins, inner)
			if inner.Props.Cost > worst.Cost {
				worst = inner.Props
			}
		}
		conds := append([]expr.Expr(nil), b.ChooseConds...)
		for len(conds) < len(ins) {
			conds = append(conds, nil)
		}
		return []*plan.Node{{
			Op:     plan.OpChoose,
			Inputs: ins,
			Cols:   cols,
			Types:  types,
			Exprs:  conds,
			Props:  worst, // costed pessimistically
		}}, nil
	}
	// Otherwise the optimizer "chooses an alternative" and eliminates
	// the CHOOSE: plan every child, keep the cheapest, relabel.
	var best *plan.Node
	for _, q := range b.Quants {
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		if best == nil || inner.Props.Cost < best.Props.Cost {
			best = inner
		}
	}
	if best == nil {
		return nil, fmt.Errorf("optimizer: CHOOSE box %d has no alternatives", b.ID)
	}
	return []*plan.Node{{
		Op:     plan.OpAccess,
		Inputs: []*plan.Node{best},
		Cols:   cols,
		Types:  types,
		Props:  best.Props,
	}}, nil
}

func buildBareBase(ctx *Ctx, a Args) ([]*plan.Node, error) {
	// A BASE box planned directly (no quantifier context): full scan.
	b := a.Box
	t := b.Table
	cols, types := boxCols(b)
	props := ctx.Opt.costScan(t, nil)
	return []*plan.Node{{
		Op:    plan.OpScan,
		Table: t,
		QID:   -b.ID,
		Cols:  cols,
		Types: types,
		Props: props,
	}}, nil
}

func buildDML(ctx *Ctx, a Args) ([]*plan.Node, error) {
	o := ctx.Opt
	b := a.Box
	switch b.Kind {
	case qgm.KindInsert:
		q := b.Quants[0]
		inner, err := o.PlanBox(q.Input)
		if err != nil {
			return nil, err
		}
		src := accessNode(q, inner)
		return []*plan.Node{{
			Op:         plan.OpInsert,
			Inputs:     []*plan.Node{src},
			Table:      b.TargetTable,
			TargetCols: b.TargetCols,
			Props:      plan.Props{Rows: src.Props.Rows, Cost: src.Props.Cost + src.Props.Rows},
		}}, nil
	case qgm.KindUpdate, qgm.KindDelete:
		// The single quantifier ranges over the target's BASE box; scan
		// it with predicates, carry RIDs implicitly in the executor.
		// Subqueries in the search condition or SET expressions are
		// deferred subplans: compile them here.
		q := b.Quants[0]
		var preds []expr.Expr
		for _, p := range b.Preds {
			pe, err := o.compileSubplans(p.Expr, b)
			if err != nil {
				return nil, err
			}
			preds = append(preds, pe)
		}
		op := plan.OpUpdate
		if b.Kind == qgm.KindDelete {
			op = plan.OpDelete
		}
		var exprs []expr.Expr
		for _, hc := range b.Head {
			he, err := o.compileSubplans(hc.Expr, b)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, he)
		}
		props := o.costScan(b.TargetTable, preds)
		return []*plan.Node{{
			Op:         op,
			Table:      b.TargetTable,
			QID:        q.QID,
			TargetCols: b.TargetCols,
			Preds:      preds,
			Exprs:      exprs,
			Props:      props,
		}}, nil
	}
	return nil, fmt.Errorf("optimizer: unknown DML kind %s", b.Kind)
}
