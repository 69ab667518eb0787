// Package optimizer implements Starburst's cost-based plan optimizer
// (section 6 of the paper, [LOHM88], [ONO88]): a rule-driven plan
// generator whose executable plans are defined by grammar-like strategy
// alternative rules (STARs) over low-level plan operators (LOLEPOPs), a
// join enumerator constructing progressively larger iterator sets, and
// a cost model propagating estimated properties through each LOLEPOP.
// The three aspects — plan generation, plan costing, search strategy —
// are kept orthogonal so each can be modified independently.
package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/qgm"
)

// Cost model constants: one unit is one simulated page I/O, matching
// the storage layer's accounting; CPU work is scaled relative to that,
// in the System R tradition.
const (
	costPageIO  = 1.0
	costRowCPU  = 0.01  // per row passed through an operator
	costPredCPU = 0.005 // per predicate evaluation
	costHashCPU = 0.015 // per row hashed (grouping, duplicate elimination)
	// A hash join's two inputs are not charged alike: a build row is
	// hashed, appended to the build table and chained, a probe row only
	// hashed and streamed past it. Between equal inputs the pair costs
	// what two costHashCPU rows do; between unequal ones the smaller
	// side builds.
	costHashBuild = 0.02
	costHashProbe = 0.01
	costSortCPU   = 0.012 // per row per log2(rows) comparison round
	costRIDIO     = 1.0   // unclustered fetch: one page per rid
	costIdxNode   = 0.2   // per index node touched

	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3.0
	defaultLikeSel  = 0.1
	defaultNullSel  = 0.1
	defaultSel      = 1.0 / 3.0
)

// tableStats returns (rows, pages), falling back to live storage counts
// when ANALYZE has not run.
func tableStats(t *catalog.Table) (float64, float64) {
	rows := float64(t.Stats.Rows)
	pages := float64(t.Stats.Pages)
	if rows == 0 {
		rows = float64(t.Rel.RowCount())
		pages = float64(t.Rel.PageCount())
	}
	if rows < 1 {
		rows = 1
	}
	if pages < 1 {
		pages = 1
	}
	return rows, pages
}

// colCard estimates the number of distinct values in a base column
// reachable through quantifier structure; 0 when unknown.
func (o *Optimizer) colCard(c *expr.Col) float64 {
	if c == nil {
		return 0
	}
	_, q := o.graph.QuantByID(c.QID)
	if q == nil || q.Input == nil {
		return 0
	}
	b := q.Input
	switch b.Kind {
	case qgm.KindBase:
		if c.Ord < len(b.Table.Stats.ColCard) {
			card := float64(b.Table.Stats.ColCard[c.Ord])
			if card > 0 {
				return card
			}
		}
		rows, _ := tableStats(b.Table)
		return math.Sqrt(rows) // heuristic when unanalyzed
	default:
		// Derived column: follow a plain column head expr downward.
		if c.Ord < len(b.Head) {
			if inner, ok := b.Head[c.Ord].Expr.(*expr.Col); ok {
				return o.colCard(inner)
			}
		}
	}
	return 0
}

// colRange returns the [min,max] of a base column when statistics know
// it.
func (o *Optimizer) colRange(c *expr.Col) (datum.Value, datum.Value, bool) {
	_, q := o.graph.QuantByID(c.QID)
	if q == nil || q.Input == nil || q.Input.Kind != qgm.KindBase {
		return datum.Null, datum.Null, false
	}
	st := q.Input.Table.Stats
	if c.Ord >= len(st.ColMin) || st.ColMin[c.Ord].IsNull() {
		return datum.Null, datum.Null, false
	}
	return st.ColMin[c.Ord], st.ColMax[c.Ord], true
}

// selectivity estimates the fraction of rows satisfying a predicate.
func (o *Optimizer) selectivity(e expr.Expr) float64 {
	switch x := e.(type) {
	case *expr.And:
		return o.selectivity(x.L) * o.selectivity(x.R)
	case *expr.Or:
		l, r := o.selectivity(x.L), o.selectivity(x.R)
		return l + r - l*r
	case *expr.Not:
		return clampSel(1 - o.selectivity(x.E))
	case *expr.Cmp:
		return o.cmpSelectivity(x)
	case *expr.Like:
		return defaultLikeSel
	case *expr.IsNull:
		if x.Negated {
			return 1 - defaultNullSel
		}
		return defaultNullSel
	case *expr.InList:
		lc, _ := x.E.(*expr.Col)
		card := o.colCard(lc)
		if card > 0 {
			return clampSel(float64(len(x.List)) / card)
		}
		return clampSel(float64(len(x.List)) * defaultEqSel)
	case *expr.Const:
		if x.Val.Type() == datum.TBool {
			if x.Val.Bool() {
				return 1
			}
			return 0
		}
	}
	return defaultSel
}

func clampSel(s float64) float64 {
	if s < 1e-6 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}

func (o *Optimizer) cmpSelectivity(c *expr.Cmp) float64 {
	lc, lIsCol := c.L.(*expr.Col)
	rc, rIsCol := c.R.(*expr.Col)
	switch c.Op {
	case expr.OpEq:
		switch {
		case lIsCol && rIsCol:
			cl, cr := o.colCard(lc), o.colCard(rc)
			m := math.Max(cl, cr)
			if m > 0 {
				return clampSel(1 / m)
			}
			return defaultEqSel
		case lIsCol:
			if card := o.colCard(lc); card > 0 {
				return clampSel(1 / card)
			}
			return defaultEqSel
		case rIsCol:
			if card := o.colCard(rc); card > 0 {
				return clampSel(1 / card)
			}
			return defaultEqSel
		}
		return defaultEqSel
	case expr.OpNe:
		return clampSel(1 - o.cmpSelectivity(&expr.Cmp{Op: expr.OpEq, L: c.L, R: c.R}))
	default:
		// Range predicate: interpolate against [min,max] when one side
		// is a column with stats and the other a constant.
		col, konst, op := lc, c.R, c.Op
		if !lIsCol && rIsCol {
			col, konst, op = rc, c.L, c.Op.Flip()
		}
		if col != nil {
			if k, ok := konst.(*expr.Const); ok {
				if lo, hi, ok := o.colRange(col); ok &&
					lo.Type() != datum.TString && !k.Val.IsNull() {
					loF, hiF, kF := lo.Float(), hi.Float(), k.Val.Float()
					if hiF > loF {
						frac := (kF - loF) / (hiF - loF)
						frac = math.Max(0, math.Min(1, frac))
						switch op {
						case expr.OpLt, expr.OpLe:
							return clampSel(frac)
						case expr.OpGt, expr.OpGe:
							return clampSel(1 - frac)
						}
					}
				}
			}
		}
		return defaultRangeSel
	}
}

// conjunctSelectivity multiplies the selectivities of predicates.
func (o *Optimizer) conjunctSelectivity(preds []expr.Expr) float64 {
	s := 1.0
	for _, p := range preds {
		s *= o.selectivity(p)
	}
	return clampSel(s)
}

// --- per-LOLEPOP property functions -----------------------------------
// "Each LOLEPOP changes selected properties of its operands ... These
// changes, including the appropriate cost and cardinality estimates,
// are defined by a function for each LOLEPOP" (section 6).

func (o *Optimizer) costScan(t *catalog.Table, preds []expr.Expr) plan.Props {
	rows, pages := tableStats(t)
	sel := o.conjunctSelectivity(preds)
	out := math.Max(1, rows*sel)
	// An observed-cardinality overlay — the actual output of a prior
	// execution of this scan shape, folded in by the feedback loop —
	// outranks the selectivity model.
	if obs, ok := t.ObservedCard(ScanPredsKey(preds)); ok {
		out = math.Max(1, obs)
		if rows < out {
			// The observation also bounds the input: a scan cannot emit
			// more rows than it read, so the stale base-table row count is
			// at least the observed output.
			rows = out
		}
	}
	return plan.Props{
		Rows: out,
		Cost: pages*costPageIO + rows*(costRowCPU+float64(len(preds))*costPredCPU),
	}
}

func (o *Optimizer) costIndexScan(t *catalog.Table, matchSel float64, residual []expr.Expr, keyLen int) plan.Props {
	rows, _ := tableStats(t)
	matched := math.Max(1, rows*matchSel)
	resSel := o.conjunctSelectivity(residual)
	depth := math.Max(1, math.Log2(matched+2))
	cost := depth*costIdxNode + matched*costIdxNode/32 + // B-tree descent + leaf scan
		matched*costRIDIO + // unclustered fetches
		matched*(costRowCPU+float64(len(residual))*costPredCPU)
	return plan.Props{
		Rows: math.Max(1, matched*resSel),
		Cost: cost,
	}
}

func (o *Optimizer) costFilter(in plan.Props, preds []expr.Expr) plan.Props {
	sel := o.conjunctSelectivity(preds)
	return plan.Props{
		Order: in.Order,
		Rows:  math.Max(1, in.Rows*sel),
		Cost:  in.Cost + in.Rows*float64(len(preds))*costPredCPU,
	}
}

func costSort(in plan.Props, keys []plan.SortKey) plan.Props {
	n := math.Max(in.Rows, 2)
	return plan.Props{
		Order: keys,
		Rows:  in.Rows,
		Cost:  in.Cost + n*math.Log2(n)*costSortCPU,
	}
}

func (o *Optimizer) costNLJoin(l, r plan.Props, joinSel float64, nPreds int) plan.Props {
	// Inner is materialized (TEMP): build once, probe rows(L) times.
	return plan.Props{
		Order: l.Order, // preserves outer order
		Rows:  math.Max(1, l.Rows*r.Rows*joinSel),
		Cost: l.Cost + r.Cost + r.Rows*costRowCPU + // materialize inner
			l.Rows*r.Rows*(costRowCPU+float64(nPreds)*costPredCPU),
	}
}

func (o *Optimizer) costHashJoin(l, r plan.Props, joinSel float64) plan.Props {
	// r is the build input, l the probe input.
	return plan.Props{
		Rows: math.Max(1, l.Rows*r.Rows*joinSel),
		Cost: l.Cost + r.Cost + r.Rows*costHashBuild + l.Rows*costHashProbe,
	}
}

// costMergeJoin prices merging inputs ordered on the equi-key slots
// keys (the left input's), which order the output too.
func (o *Optimizer) costMergeJoin(l, r plan.Props, joinSel float64, keys []plan.SortKey) plan.Props {
	return plan.Props{
		Order: keys,
		Rows:  math.Max(1, l.Rows*r.Rows*joinSel),
		Cost:  l.Cost + r.Cost + (l.Rows+r.Rows)*costRowCPU,
	}
}

// costGroup prices grouping on nGroupCols columns: without any, a
// scalar aggregate yields exactly one row.
func costGroup(in plan.Props, nGroupCols, nAggs int) plan.Props {
	groups := 1.0
	if nGroupCols > 0 {
		groups = math.Max(1, in.Rows/3) // heuristic group count
	}
	return plan.Props{
		Rows: groups,
		Cost: in.Cost + in.Rows*(costHashCPU+float64(nAggs)*costRowCPU),
	}
}

func costDistinct(in plan.Props) plan.Props {
	return plan.Props{
		Order: in.Order,
		Rows:  math.Max(1, in.Rows*0.5),
		Cost:  in.Cost + in.Rows*costHashCPU,
	}
}
