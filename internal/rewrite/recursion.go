package rewrite

import (
	"repro/internal/expr"
	"repro/internal/qgm"
)

// RecursiveSelectionPushdownRule is the reproduction's magic-sets-style
// transformation for recursive queries (section 5: "recently we have
// been adding rewrite rules for recursive queries, including rules to
// do magic set transformations [BANC86]").
//
// It covers the workhorse case: a selection on a recursive table
// expression restricted to columns that every recursive branch
// propagates unchanged (e.g. "SELECT ... FROM reach WHERE src = 1" when
// the recursive rule copies src from the recursive tuple). Then
// filtering the *seed* branches is equivalent to filtering the result:
// by induction, every derived tuple inherits the restricted column
// values from a tuple that already satisfied the predicate, and no
// unrestricted tuple can derive a restricted one. The fixpoint then
// never materializes the irrelevant part of the closure — the magic-set
// benefit (computing reach from one source instead of all sources).
func RecursiveSelectionPushdownRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) (*qgm.Predicate, *qgm.Quantifier) {
		if b.Kind != qgm.KindSelect {
			return nil, nil
		}
		for _, q := range b.Quants {
			if q.Type != qgm.ForEach {
				continue
			}
			u := q.Input
			if u.Kind != qgm.KindUnion || !u.Recursive {
				continue
			}
			// The union must be referenced only by this quantifier and
			// by its own recursive branches.
			external := 0
			for _, r := range ctx.Graph.RangersOver(u) {
				if !subtreeOf(u, r.Box) {
					external++
				}
			}
			if external != 1 {
				continue
			}
			for _, p := range b.Preds {
				if expr.HasSubplan(p.Expr) || expr.HasAggregate(p.Expr) {
					continue
				}
				if !expr.RefersOnlyTo(p.Expr, q.QID) {
					continue
				}
				// Which output ordinals does the predicate touch?
				ords := map[int]bool{}
				expr.Walk(p.Expr, func(x expr.Expr) bool {
					if c, ok := x.(*expr.Col); ok {
						ords[c.Ord] = true
					}
					return true
				})
				if propagatesUnchanged(u, ords) && seedsCanReceive(ctx, u) {
					return p, q
				}
			}
		}
		return nil, nil
	}
	return &Rule{
		Name:     "recursive-selection-pushdown",
		Class:    "recursion",
		Priority: 85,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			p, _ := match(ctx, b)
			return p != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			p, q := match(ctx, b)
			u := q.Input
			for _, branch := range u.Quants {
				if subtreeReferencesBox(branch.Input, u) {
					continue // recursive branches inherit the restriction
				}
				seed := branch.Input
				// Map the predicate through the quantifier and the
				// seed's head expressions.
				np := expr.SubstituteCols(p.Expr, func(c *expr.Col) expr.Expr {
					if c.QID != q.QID {
						return nil
					}
					return seed.Head[c.Ord].Expr
				})
				seed.Preds = append(seed.Preds, &qgm.Predicate{Expr: np})
			}
			for i, x := range b.Preds {
				if x == p {
					b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
					break
				}
			}
			return nil
		},
	}
}

// propagatesUnchanged reports whether every recursive branch's head
// passes the given output ordinals through from its own quantifier over
// the union, unchanged.
func propagatesUnchanged(u *qgm.Box, ords map[int]bool) bool {
	for _, branch := range u.Quants {
		if !subtreeReferencesBox(branch.Input, u) {
			continue
		}
		r := branch.Input
		if r.Kind != qgm.KindSelect {
			return false
		}
		// Find the quantifier(s) over u inside r (direct reference only
		// — deeper nesting is out of this rule's scope).
		var recQ *qgm.Quantifier
		for _, rq := range r.Quants {
			if rq.Input == u {
				if recQ != nil {
					return false // non-linear: conservatively skip
				}
				recQ = rq
			}
		}
		if recQ == nil {
			return false // reference is nested deeper
		}
		for ord := range ords {
			c, ok := r.Head[ord].Expr.(*expr.Col)
			if !ok || c.QID != recQ.QID || c.Ord != ord {
				return false
			}
		}
	}
	return true
}

// seedsCanReceive reports whether every seed branch is a SELECT box
// solely referenced by its union quantifier (so a predicate can land).
func seedsCanReceive(ctx *Context, u *qgm.Box) bool {
	for _, branch := range u.Quants {
		if subtreeReferencesBox(branch.Input, u) {
			continue
		}
		if branch.Input.Kind != qgm.KindSelect {
			return false
		}
		if rs := ctx.Graph.RangersOver(branch.Input); len(rs) != 1 {
			return false
		}
		// Head expressions must exist to substitute through.
		for _, hc := range branch.Input.Head {
			if hc.Expr == nil {
				return false
			}
		}
	}
	return true
}

// subtreeOf reports whether candidate is reachable from root via range
// edges (candidate is inside root's subtree).
func subtreeOf(root, candidate *qgm.Box) bool {
	if root == candidate {
		return true
	}
	seen := map[*qgm.Box]bool{}
	var walk func(b *qgm.Box) bool
	walk = func(b *qgm.Box) bool {
		if b == candidate {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, q := range b.Quants {
			if walk(q.Input) {
				return true
			}
		}
		return false
	}
	return walk(root)
}

// subtreeReferencesBox reports whether the subtree under start contains
// a quantifier ranging over target.
func subtreeReferencesBox(start, target *qgm.Box) bool {
	seen := map[*qgm.Box]bool{}
	var walk func(b *qgm.Box) bool
	walk = func(b *qgm.Box) bool {
		if b == nil || seen[b] {
			return false
		}
		seen[b] = true
		for _, q := range b.Quants {
			if q.Input == target || walk(q.Input) {
				return true
			}
		}
		return false
	}
	return walk(start)
}
