package rewrite

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/qgm"
)

// This file is the "rich set of primitives for manipulating query
// graphs" the paper's rule system requires. Rules compose these;
// DBC-written rules may use them too.

// substituteQuant replaces references to quantifier qid in e with the
// head expressions of the box it ranges over (the core of merging).
func substituteQuant(e expr.Expr, qid int, head []qgm.HeadCol) expr.Expr {
	return expr.SubstituteCols(e, func(c *expr.Col) expr.Expr {
		if c.QID != qid {
			return nil
		}
		h := head[c.Ord].Expr
		if h == nil {
			return nil
		}
		return h
	})
}

// MergeQuant merges the box under quantifier q into owner: q's input
// box's quantifiers and predicates move up, and every reference to q in
// owner is replaced by the corresponding head expression. The merged
// box must be a SELECT solely referenced by q. This implements the
// action of the paper's Rule 2 (operation merging / view merging).
func MergeQuant(ctx *Context, owner *qgm.Box, q *qgm.Quantifier) error {
	lower := q.Input
	if lower.Kind != qgm.KindSelect {
		return fmt.Errorf("rewrite: can only merge SELECT boxes, got %s", lower.Kind)
	}
	if rs := ctx.Graph.RangersOver(lower); len(rs) != 1 {
		return fmt.Errorf("rewrite: box %d has %d rangers; merge requires sole ownership", lower.ID, len(rs))
	}
	// Rewrite owner's head, predicates and grouping expressions.
	for i := range owner.Head {
		if owner.Head[i].Expr != nil {
			owner.Head[i].Expr = substituteQuant(owner.Head[i].Expr, q.QID, lower.Head)
		}
	}
	for _, p := range owner.Preds {
		p.Expr = substituteQuant(p.Expr, q.QID, lower.Head)
	}
	for i := range owner.GroupBy {
		owner.GroupBy[i] = substituteQuant(owner.GroupBy[i], q.QID, lower.Head)
	}
	// Move body parts up.
	owner.AdoptQuants(lower)
	owner.Preds = append(owner.Preds, lower.Preds...)
	lower.Preds = nil
	// Paper: IF OP2.eliminate-duplicate THEN OP1.eliminate-duplicate.
	if lower.Distinct == qgm.EnforceDistinct {
		owner.Distinct = qgm.EnforceDistinct
	}
	owner.RemoveQuant(q.QID)
	ctx.Graph.RemoveBox(lower)
	return nil
}

// PredicatePushable reports whether predicate p of box can be pushed
// down to the box under quantifier q: p must reference exactly q among
// box's quantifiers (correlated references to OUTER quantifiers are
// allowed and stay correlated), q must be a plain setformer, and the
// target must be a SELECT box solely referenced by q. Predicates
// containing deferred subplans never migrate.
func PredicatePushable(ctx *Context, box *qgm.Box, p *qgm.Predicate, q *qgm.Quantifier) bool {
	if q.Type != qgm.ForEach || q.Input.Kind != qgm.KindSelect {
		return false
	}
	if q.Input.Distinct == qgm.EnforceDistinct {
		// Pushing below duplicate elimination is still sound for
		// selections (filter then dedup == dedup then filter), so allow.
		_ = q
	}
	if expr.HasSubplan(p.Expr) || expr.HasAggregate(p.Expr) {
		return false
	}
	if !expr.RefersTo(p.Expr, q.QID) {
		return false
	}
	// Every referenced quantifier must be either q itself or belong to
	// an enclosing box (correlation), i.e. not one of box's others.
	for _, other := range box.Quants {
		if other.QID != q.QID && expr.RefersTo(p.Expr, other.QID) {
			return false
		}
	}
	if _, soleQ := ctx.SoleRanger(q.Input); soleQ == nil {
		return false
	}
	return true
}

// PushPredicate moves predicate p from box into the box under q,
// rewriting column references through q's head. Use PredicatePushable
// first.
func PushPredicate(ctx *Context, box *qgm.Box, p *qgm.Predicate, q *qgm.Quantifier) error {
	lower := q.Input
	ne := substituteQuant(p.Expr, q.QID, lower.Head)
	lower.Preds = append(lower.Preds, &qgm.Predicate{Expr: ne})
	for i, x := range box.Preds {
		if x == p {
			box.Preds = append(box.Preds[:i], box.Preds[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("rewrite: predicate not found in box %d", box.ID)
}

// usedOrdinals reports which output columns of box are referenced by
// any ranger (head, predicates, grouping) anywhere in the graph: used[i]
// for column i, and n, how many columns are referenced. A GROUPBY box's
// grouping columns always count as used: its head is the grouping
// columns followed by the aggregates, and the GROUP operator is built
// from that layout. It walks the graph once, matching a column against
// every ranger's quantifier, and used is ctx's buffer, which the next
// call overwrites.
func usedOrdinals(ctx *Context, box *qgm.Box) (used []bool, n int) {
	ctx.qids = ctx.qids[:0]
	for _, b := range ctx.Graph.Boxes {
		for _, q := range b.Quants {
			if q.Input == box {
				ctx.qids = append(ctx.qids, q.QID)
			}
		}
	}
	used = slices.Grow(ctx.used[:0], len(box.Head))[:len(box.Head)]
	clear(used)
	mark := func(ord int) {
		if ord < 0 {
			return
		}
		if k := len(used); ord >= k {
			used = slices.Grow(used, ord+1-k)[:ord+1]
			clear(used[k:])
		}
		if !used[ord] {
			used[ord] = true
			n++
		}
	}
	if box.Kind == qgm.KindGroupBy {
		for i := range box.GroupBy {
			mark(i)
		}
	}
	if len(ctx.qids) > 0 {
		visit := func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok && slices.Contains(ctx.qids, c.QID) {
				mark(c.Ord)
			}
			return true
		}
		for _, b := range ctx.Graph.Boxes {
			for _, hc := range b.Head {
				expr.Walk(hc.Expr, visit)
			}
			for _, p := range b.Preds {
				expr.Walk(p.Expr, visit)
			}
			for _, ge := range b.GroupBy {
				expr.Walk(ge, visit)
			}
		}
	}
	ctx.used = used
	return used, n
}

// TrimHead removes unused output columns from a derived box and remaps
// every reference (projection push-down). Distinct-enforcing and set
// operation boxes keep their full head (trimming would change
// duplicate semantics).
func TrimHead(ctx *Context, box *qgm.Box) (bool, error) {
	if box.Kind != qgm.KindSelect && box.Kind != qgm.KindGroupBy {
		return false, nil
	}
	if box.Distinct == qgm.EnforceDistinct {
		return false, nil
	}
	used, n := usedOrdinals(ctx, box)
	if n == len(box.Head) {
		return false, nil
	}
	if n == 0 {
		// Keep one column: empty heads are not meaningful tables.
		used[0] = true
	}
	remap := make([]int, len(box.Head))
	var newHead []qgm.HeadCol
	for i, hc := range box.Head {
		if used[i] {
			remap[i] = len(newHead)
			newHead = append(newHead, hc)
		} else {
			remap[i] = -1
		}
	}
	box.Head = newHead
	// Remap all references through every ranger.
	for _, r := range ctx.Graph.RangersOver(box) {
		qid := r.Quant.QID
		fix := func(e expr.Expr) expr.Expr {
			return expr.Transform(e, func(x expr.Expr) expr.Expr {
				c, ok := x.(*expr.Col)
				if !ok || c.QID != qid {
					return x
				}
				nc := *c
				nc.Ord = remap[c.Ord]
				return &nc
			})
		}
		for _, b := range ctx.Graph.Boxes {
			for i := range b.Head {
				if b.Head[i].Expr != nil {
					b.Head[i].Expr = fix(b.Head[i].Expr)
				}
			}
			for _, p := range b.Preds {
				p.Expr = fix(p.Expr)
			}
			for i := range b.GroupBy {
				b.GroupBy[i] = fix(b.GroupBy[i])
			}
		}
	}
	return true, nil
}

// ProvablyDistinct reports whether box's output provably has no
// duplicates per evaluation: either structurally (DISTINCT, GROUP BY,
// set operation) or because it projects a complete unique-index key of
// a single stored table — the uniqueness knowledge behind the paper's
// Rule 1 ("at most one tuple of T2 satisfies the predicate").
func ProvablyDistinct(box *qgm.Box) bool {
	if box.OutputDistinct() {
		return true
	}
	if box.Kind != qgm.KindSelect {
		return false
	}
	sfs := box.Setformers()
	if len(sfs) != 1 || len(box.Quants) != len(sfs) {
		return false
	}
	base := sfs[0].Input
	if base.Kind != qgm.KindBase {
		return false
	}
	// Which base-table ordinals does the head project (as plain cols)?
	headOrds := map[int]bool{}
	for _, hc := range box.Head {
		if c, ok := hc.Expr.(*expr.Col); ok && c.QID == sfs[0].QID {
			headOrds[c.Ord] = true
		}
	}
	// Ordinals bound to constants or outer values by equality
	// predicates also contribute to key coverage.
	for _, p := range box.Preds {
		if c, ok := equalityBoundCol(p.Expr, sfs[0].QID); ok {
			headOrds[c] = true
		}
	}
	for _, ix := range base.Table.Indexes {
		if !ix.Unique {
			continue
		}
		all := true
		for _, k := range ix.KeyCols {
			if !headOrds[k] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// equalityBoundCol recognizes predicates of the form q.col = <expr not
// referencing q> (either orientation) and returns the bound ordinal.
func equalityBoundCol(e expr.Expr, qid int) (int, bool) {
	cmp, ok := e.(*expr.Cmp)
	if !ok || cmp.Op != expr.OpEq {
		return 0, false
	}
	try := func(side, other expr.Expr) (int, bool) {
		c, ok := side.(*expr.Col)
		if !ok || c.QID != qid {
			return 0, false
		}
		if expr.RefersTo(other, qid) {
			return 0, false
		}
		return c.Ord, true
	}
	if ord, ok := try(cmp.L, cmp.R); ok {
		return ord, true
	}
	return try(cmp.R, cmp.L)
}

// EqualityLinkFor finds a predicate of box of the form "<outer expr> =
// q.col" linking the subquery quantifier q on its only output column;
// required by the subquery-to-join rules.
func EqualityLinkFor(box *qgm.Box, q *qgm.Quantifier) *qgm.Predicate {
	for _, p := range box.Preds {
		cmp, ok := p.Expr.(*expr.Cmp)
		if !ok || cmp.Op != expr.OpEq {
			continue
		}
		if !expr.RefersTo(p.Expr, q.QID) {
			continue
		}
		isQCol := func(e expr.Expr) bool {
			c, ok := e.(*expr.Col)
			return ok && c.QID == q.QID && c.Ord == 0
		}
		if isQCol(cmp.L) && !expr.RefersTo(cmp.R, q.QID) {
			return p
		}
		if isQCol(cmp.R) && !expr.RefersTo(cmp.L, q.QID) {
			return p
		}
	}
	return nil
}

// CloneSubgraph deep-copies the subgraph reachable from box into the
// same graph with fresh quantifier ids, returning the copied root.
// Shared BASE boxes are not copied (they carry no mutable state).
// Column references to quantifiers outside the subgraph (correlation)
// are preserved. Used to build CHOOSE alternatives.
func CloneSubgraph(g *qgm.Graph, box *qgm.Box) *qgm.Box {
	boxMap := map[*qgm.Box]*qgm.Box{}
	qidMap := map[int]int{}

	// Phase 1: clone the box/quantifier structure, registering every
	// quantifier-id mapping before any expression is touched, so that
	// correlated references between cloned boxes remap correctly.
	var cloneStructure func(b *qgm.Box) *qgm.Box
	cloneStructure = func(b *qgm.Box) *qgm.Box {
		if b.Kind == qgm.KindBase {
			return b
		}
		if nb, ok := boxMap[b]; ok {
			return nb
		}
		nb := g.NewBox(b.Kind)
		boxMap[b] = nb
		nb.Distinct = b.Distinct
		nb.SetAll = b.SetAll
		nb.Recursive = b.Recursive
		nb.Table = b.Table
		nb.TableFn = b.TableFn
		nb.TargetTable = b.TargetTable
		nb.TargetCols = append([]int(nil), b.TargetCols...)
		for _, q := range b.Quants {
			nq := g.NewQuant(nb, q.Type, q.Name, nil)
			nq.Negated = q.Negated
			nq.SetPred = q.SetPred
			qidMap[q.QID] = nq.QID
		}
		for i, q := range b.Quants {
			nb.Quants[i].Input = cloneStructure(q.Input)
		}
		return nb
	}
	cloneStructure(box)

	// Phase 2: copy expressions with quantifier ids remapped.
	// References to quantifiers outside the subgraph (correlation with
	// the uncloned part) are left intact by design.
	remap := func(e expr.Expr) expr.Expr {
		return expr.Transform(e, func(x expr.Expr) expr.Expr {
			c, ok := x.(*expr.Col)
			if !ok {
				return x
			}
			if nid, ok := qidMap[c.QID]; ok {
				nc := *c
				nc.QID = nid
				return &nc
			}
			return x
		})
	}
	for b, nb := range boxMap {
		for _, hc := range b.Head {
			nhc := hc
			if hc.Expr != nil {
				nhc.Expr = remap(hc.Expr)
			}
			nb.Head = append(nb.Head, nhc)
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, &qgm.Predicate{Expr: remap(p.Expr)})
		}
		for _, ge := range b.GroupBy {
			nb.GroupBy = append(nb.GroupBy, remap(ge))
		}
		for _, row := range b.Rows {
			var nrow []expr.Expr
			for _, e := range row {
				nrow = append(nrow, remap(e))
			}
			nb.Rows = append(nb.Rows, nrow)
		}
		for _, e := range b.TFScalarArgs {
			nb.TFScalarArgs = append(nb.TFScalarArgs, remap(e))
		}
	}
	return boxMap[box]
}

// WrapChoose replaces every range edge into box with a CHOOSE box whose
// alternatives are box itself and the provided alternatives (section 5:
// "we have therefore added a new operation, CHOOSE, to QGM to link
// together the alternatives"). The optimizer later keeps the cheapest
// alternative.
func WrapChoose(g *qgm.Graph, box *qgm.Box, alternatives ...*qgm.Box) *qgm.Box {
	ch := g.NewBox(qgm.KindChoose)
	ch.Head = append([]qgm.HeadCol(nil), box.Head...)
	for i := range ch.Head {
		ch.Head[i].Expr = nil
	}
	rangers := g.RangersOver(box)
	g.NewQuant(ch, qgm.ForEach, "", box)
	for _, alt := range alternatives {
		g.NewQuant(ch, qgm.ForEach, "", alt)
	}
	for _, r := range rangers {
		if r.Box == ch {
			continue
		}
		r.Quant.Input = ch
	}
	return ch
}
