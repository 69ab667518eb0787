package rewrite

import (
	"repro/internal/expr"
	"repro/internal/qgm"
)

// BaseRules returns the rule set provided for the base system
// operations, falling into the paper's three main classes — predicate
// migration, projection push-down, and operation merging — plus the
// subquery-to-join conversions and redundant-join elimination.
func BaseRules() []*Rule {
	return []*Rule{
		SubqueryToJoinRule(),
		SubqueryToDistinctJoinRule(),
		OperationMergeRule(),
		PredicatePushdownRule(),
		PredicateIntoGroupByRule(),
		ProjectionPushdownRule(),
		RedundantJoinRule(),
		RecursiveSelectionPushdownRule(),
		PredicateReplicationRule(),
	}
}

// SubqueryToJoinRule is the paper's Rule 1 (Subquery to Join):
//
//	IF OP1.type=Select ∧ Q2.type='E' ∧
//	   (at each evaluation of the existential predicate at most one
//	    tuple of T2 satisfies the predicate)
//	THEN Q2.type = 'F'  /* convert to join */
//
// Uniqueness is established when the subquery's output is provably
// duplicate-free (DISTINCT, GROUP BY, set operation, or projection of a
// unique-index key) and the quantifier is linked by an equality on its
// single output column.
func SubqueryToJoinRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) *qgm.Quantifier {
		if b.Kind != qgm.KindSelect {
			return nil
		}
		for _, q := range b.Quants {
			if q.Type != qgm.QExists || q.Negated || q.SetPred != "ANY" {
				continue
			}
			if len(q.Input.Head) != 1 || !ProvablyDistinct(q.Input) {
				continue
			}
			if EqualityLinkFor(b, q) == nil {
				continue
			}
			if _, sole := ctx.SoleRanger(q.Input); sole == nil {
				continue
			}
			return q
		}
		return nil
	}
	return &Rule{
		Name:     "subquery-to-join",
		Class:    "subquery",
		Priority: 90,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return match(ctx, b) != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			q := match(ctx, b)
			q.Type = qgm.ForEach
			q.SetPred = ""
			return nil
		},
	}
}

// SubqueryToDistinctJoinRule is the generalized conversion ([KIM82],
// [GANS87]): an existential quantifier linked by an equality on its
// only output column can always become a join over the
// duplicate-eliminated subquery, because x IN S ≡ x ⋈ DISTINCT(S).
func SubqueryToDistinctJoinRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) *qgm.Quantifier {
		if b.Kind != qgm.KindSelect {
			return nil
		}
		for _, q := range b.Quants {
			if q.Type != qgm.QExists || q.Negated || q.SetPred != "ANY" {
				continue
			}
			if len(q.Input.Head) != 1 {
				continue
			}
			if q.Input.Kind != qgm.KindSelect && q.Input.Kind != qgm.KindGroupBy {
				continue
			}
			// PRESERVE is frozen: the rule may not strengthen it to
			// ENFORCE (audit mode would flag the transition).
			if q.Input.Distinct == qgm.PreserveDuplicates {
				continue
			}
			if EqualityLinkFor(b, q) == nil {
				continue
			}
			// Correlated subqueries depend on the outer tuple; forcing
			// DISTINCT per evaluation is still per-outer-tuple, which a
			// plain join cannot express — require no correlation.
			if correlated(ctx, q.Input, b) {
				continue
			}
			if _, sole := ctx.SoleRanger(q.Input); sole == nil {
				continue
			}
			return q
		}
		return nil
	}
	return &Rule{
		Name:     "subquery-to-distinct-join",
		Class:    "subquery",
		Priority: 80,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return match(ctx, b) != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			q := match(ctx, b)
			q.Input.Distinct = qgm.EnforceDistinct
			q.Type = qgm.ForEach
			q.SetPred = ""
			return nil
		},
	}
}

// correlated reports whether any expression inside sub (or boxes below
// it) references a quantifier that does not belong to sub's subtree —
// i.e. the subquery depends on outer tuples.
func correlated(ctx *Context, sub *qgm.Box, outer *qgm.Box) bool {
	own := map[int]bool{}
	var collect func(b *qgm.Box, seen map[*qgm.Box]bool)
	collect = func(b *qgm.Box, seen map[*qgm.Box]bool) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, q := range b.Quants {
			own[q.QID] = true
			collect(q.Input, seen)
		}
	}
	collect(sub, map[*qgm.Box]bool{})
	foreign := false
	check := func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok && c.QID >= 0 && !own[c.QID] {
				foreign = true
				return false
			}
			return true
		})
	}
	seen := map[*qgm.Box]bool{}
	var scan func(b *qgm.Box)
	scan = func(b *qgm.Box) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, hc := range b.Head {
			if hc.Expr != nil {
				check(hc.Expr)
			}
		}
		for _, p := range b.Preds {
			check(p.Expr)
		}
		for _, ge := range b.GroupBy {
			check(ge)
		}
		for _, q := range b.Quants {
			scan(q.Input)
		}
	}
	scan(sub)
	return foreign
}

// OperationMergeRule is the paper's Rule 2 (Operation Merging):
//
//	IF OP1.type = Select ∧ OP2.type = Select ∧ Q2.type = 'F'
//	   ∧ NOT (T1.distinct = false ∧ OP2.eliminate-duplicate = true)
//	THEN merge OP2 into OP1;
//	     IF OP2.eliminate-duplicate THEN OP1.eliminate-duplicate
//
// View merging falls into this class: a view reference is just a
// quantifier over the view's SELECT box.
func OperationMergeRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) *qgm.Quantifier {
		if b.Kind != qgm.KindSelect {
			return nil
		}
		for _, q := range b.Quants {
			if q.Type != qgm.ForEach || q.Input.Kind != qgm.KindSelect {
				continue
			}
			lower := q.Input
			// The paper's duplicate condition.
			if !b.OutputDistinct() && lower.Distinct == qgm.EnforceDistinct {
				continue
			}
			// Sole ownership: merging a shared table expression would
			// duplicate work; the merge-vs-materialize choice for
			// shared boxes is the CHOOSE operation's job.
			if _, sole := ctx.SoleRanger(lower); sole == nil {
				continue
			}
			return q
		}
		return nil
	}
	return &Rule{
		Name:     "operation-merge",
		Class:    "merge",
		Priority: 70,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return match(ctx, b) != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			q := match(ctx, b)
			return MergeQuant(ctx, b, q)
		},
	}
}

// PredicatePushdownRule migrates a predicate referencing exactly one
// local quantifier down into the derived table it ranges over,
// minimizing the data produced by the lower operation (predicate
// migration class). The "from" and "to" halves the paper describes are
// both checked by PredicatePushable: SELECT gives predicates away and
// SELECT receives them.
func PredicatePushdownRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) (*qgm.Predicate, *qgm.Quantifier) {
		if b.Kind != qgm.KindSelect && b.Kind != qgm.KindOuterJoin {
			return nil, nil
		}
		for _, p := range b.Preds {
			for _, q := range b.Quants {
				if b.Kind == qgm.KindOuterJoin && q.Type == qgm.PreserveForeach {
					// The base rule never pushes predicates out of an
					// outer join's preserved side: they are part of the
					// join condition and removing tuples early would
					// change which rows are preserved... unless pushed
					// *through* the PF quantifier by the outer-join
					// extension rule (registered separately).
					continue
				}
				if b.Kind == qgm.KindOuterJoin && q.Type == qgm.ForEach {
					// ON-clause predicates of the null-producing side
					// must stay with the join.
					continue
				}
				if PredicatePushable(ctx, b, p, q) {
					return p, q
				}
			}
		}
		return nil, nil
	}
	return &Rule{
		Name:     "predicate-pushdown",
		Class:    "predmigration",
		Priority: 60,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			p, _ := match(ctx, b)
			return p != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			p, q := match(ctx, b)
			return PushPredicate(ctx, b, p, q)
		},
	}
}

// PredicateIntoGroupByRule pushes a predicate that references only
// grouping columns through a GROUP BY box into its input: filtering
// whole groups early is equivalent to filtering their rows first.
func PredicateIntoGroupByRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) (*qgm.Predicate, *qgm.Quantifier) {
		if b.Kind != qgm.KindSelect {
			return nil, nil
		}
		for _, q := range b.Quants {
			if q.Type != qgm.ForEach || q.Input.Kind != qgm.KindGroupBy {
				continue
			}
			gb := q.Input
			if _, sole := ctx.SoleRanger(gb); sole == nil {
				continue
			}
			nGroup := len(gb.GroupBy)
			for _, p := range b.Preds {
				if expr.HasSubplan(p.Expr) || expr.HasAggregate(p.Expr) {
					continue
				}
				if !expr.RefersOnlyTo(p.Expr, q.QID) {
					continue
				}
				onlyGroupCols := expr.Walk(p.Expr, func(x expr.Expr) bool {
					c, ok := x.(*expr.Col)
					return !ok || c.Ord < nGroup
				})
				if onlyGroupCols {
					return p, q
				}
			}
		}
		return nil, nil
	}
	return &Rule{
		Name:     "predicate-through-groupby",
		Class:    "predmigration",
		Priority: 55,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			p, _ := match(ctx, b)
			return p != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			p, q := match(ctx, b)
			gb := q.Input
			// Rewrite through the GROUP BY head (group columns are
			// col refs over gb's own quantifier), landing the predicate
			// on the group box's input quantifier's columns.
			ne := expr.SubstituteCols(p.Expr, func(c *expr.Col) expr.Expr {
				if c.QID != q.QID {
					return nil
				}
				return gb.Head[c.Ord].Expr
			})
			gb.Preds = append(gb.Preds, &qgm.Predicate{Expr: ne})
			for i, x := range b.Preds {
				if x == p {
					b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
					break
				}
			}
			// A GROUPBY box does not itself filter; immediately migrate
			// the new predicate into its input SELECT box when possible
			// to keep the graph executable.
			in := gb.Quants[0]
			np := gb.Preds[len(gb.Preds)-1]
			if PredicatePushable(ctx, gb, np, in) {
				return PushPredicate(ctx, gb, np, in)
			}
			return nil
		},
	}
}

// ProjectionPushdownRule trims unused output columns of derived tables
// ("rules for projection push-down avoid the retrieval of unused
// columns of tables or views"); it interacts with predicate migration —
// once a predicate moves down, columns only it referenced become
// unused above.
func ProjectionPushdownRule() *Rule {
	canTrim := func(ctx *Context, b *qgm.Box) bool {
		for _, q := range b.Quants {
			lower := q.Input
			if lower.Kind != qgm.KindSelect && lower.Kind != qgm.KindGroupBy {
				continue
			}
			if lower.Distinct == qgm.EnforceDistinct {
				continue
			}
			if _, n := usedOrdinals(ctx, lower); n > 0 && n < len(lower.Head) {
				return true
			}
		}
		return false
	}
	return &Rule{
		Name:     "projection-pushdown",
		Class:    "projection",
		Priority: 40,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return canTrim(ctx, b)
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			for _, q := range b.Quants {
				if _, err := TrimHead(ctx, q.Input); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// RedundantJoinRule eliminates a self-join on a complete unique key
// ([OTT82], "removing redundant join operations in queries involving
// views"): if q1 and q2 range over the same stored table and are joined
// by equality on every column of a unique index, the rows are
// identical, so q2's references collapse onto q1.
func RedundantJoinRule() *Rule {
	match := func(ctx *Context, b *qgm.Box) (*qgm.Quantifier, *qgm.Quantifier) {
		if b.Kind != qgm.KindSelect {
			return nil, nil
		}
		for i, q1 := range b.Quants {
			if q1.Type != qgm.ForEach || q1.Input.Kind != qgm.KindBase {
				continue
			}
			for _, q2 := range b.Quants[i+1:] {
				if q2.Type != qgm.ForEach || q2.Input != q1.Input {
					continue
				}
				// Collect ordinals equated between q1 and q2.
				equated := map[int]bool{}
				for _, p := range b.Preds {
					cmp, ok := p.Expr.(*expr.Cmp)
					if !ok || cmp.Op != expr.OpEq {
						continue
					}
					c1, ok1 := cmp.L.(*expr.Col)
					c2, ok2 := cmp.R.(*expr.Col)
					if !ok1 || !ok2 {
						continue
					}
					if c1.QID == q1.QID && c2.QID == q2.QID && c1.Ord == c2.Ord {
						equated[c1.Ord] = true
					}
					if c1.QID == q2.QID && c2.QID == q1.QID && c1.Ord == c2.Ord {
						equated[c1.Ord] = true
					}
				}
				for _, ix := range q1.Input.Table.Indexes {
					if !ix.Unique {
						continue
					}
					all := true
					for _, k := range ix.KeyCols {
						if !equated[k] {
							all = false
							break
						}
					}
					if all {
						return q1, q2
					}
				}
			}
		}
		return nil, nil
	}
	return &Rule{
		Name:     "redundant-join-elimination",
		Class:    "merge",
		Priority: 75,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			q1, _ := match(ctx, b)
			return q1 != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			q1, q2 := match(ctx, b)
			redirect := func(e expr.Expr) expr.Expr {
				return expr.Transform(e, func(x expr.Expr) expr.Expr {
					c, ok := x.(*expr.Col)
					if !ok || c.QID != q2.QID {
						return x
					}
					nc := *c
					nc.QID = q1.QID
					return &nc
				})
			}
			// Redirect references anywhere in the graph (the quantifier
			// may be referenced by correlated subqueries).
			for _, box := range ctx.Graph.Boxes {
				for i := range box.Head {
					if box.Head[i].Expr != nil {
						box.Head[i].Expr = redirect(box.Head[i].Expr)
					}
				}
				for _, p := range box.Preds {
					p.Expr = redirect(p.Expr)
				}
				for i := range box.GroupBy {
					box.GroupBy[i] = redirect(box.GroupBy[i])
				}
			}
			b.RemoveQuant(q2.QID)
			// Drop tautological self-equalities produced by the merge.
			var kept []*qgm.Predicate
			for _, p := range b.Preds {
				if cmp, ok := p.Expr.(*expr.Cmp); ok && cmp.Op == expr.OpEq {
					if c1, ok1 := cmp.L.(*expr.Col); ok1 {
						if c2, ok2 := cmp.R.(*expr.Col); ok2 &&
							c1.QID == c2.QID && c1.Ord == c2.Ord {
							// q1.k = q1.k: drop, but preserve its NULL
							// rejection (k IS NOT NULL) to stay exact.
							kept = append(kept, &qgm.Predicate{
								Expr: &expr.IsNull{E: cmp.L, Negated: true}})
							continue
						}
					}
				}
				kept = append(kept, p)
			}
			b.Preds = kept
			return nil
		},
	}
}

// PredicateReplicationRule implements the paper's "predicates may also
// be replicated, and replicas migrated to multiple operations to reduce
// execution cost": given an equality join predicate q1.a = q2.b and a
// constant restriction on one side (q1.a = 5, q1.a < 5, ...), an
// equivalent restriction on the other side is added. The replica then
// migrates independently (e.g. into the other table's scan, where it
// may enable an index).
func PredicateReplicationRule() *Rule {
	type repl struct {
		newPred expr.Expr
	}
	match := func(ctx *Context, b *qgm.Box) *repl {
		if b.Kind != qgm.KindSelect {
			return nil
		}
		// Collect column-equality pairs and single-column constant
		// restrictions.
		type colKey struct{ qid, ord int }
		var pairs [][2]*expr.Col
		for _, p := range b.Preds {
			cmp, ok := p.Expr.(*expr.Cmp)
			if !ok || cmp.Op != expr.OpEq {
				continue
			}
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok && (lc.QID != rc.QID || lc.Ord != rc.Ord) {
				pairs = append(pairs, [2]*expr.Col{lc, rc})
			}
		}
		if len(pairs) == 0 {
			return nil
		}
		have := map[string]bool{}
		for _, p := range b.Preds {
			have[p.Expr.String()] = true
		}
		for _, p := range b.Preds {
			cmp, ok := p.Expr.(*expr.Cmp)
			if !ok {
				continue
			}
			// One side a column, the other constant-only.
			col, konst, op := cmp.L, cmp.R, cmp.Op
			c, isCol := col.(*expr.Col)
			if !isCol {
				col, konst, op = cmp.R, cmp.L, cmp.Op.Flip()
				c, isCol = col.(*expr.Col)
			}
			if !isCol {
				continue
			}
			if _, isConst := konst.(*expr.Const); !isConst {
				continue
			}
			_ = colKey{c.QID, c.Ord}
			for _, pr := range pairs {
				var other *expr.Col
				if pr[0].QID == c.QID && pr[0].Ord == c.Ord {
					other = pr[1]
				} else if pr[1].QID == c.QID && pr[1].Ord == c.Ord {
					other = pr[0]
				} else {
					continue
				}
				replica := &expr.Cmp{Op: op, L: other, R: konst}
				// Idempotence across migrations: a generated replica
				// may immediately be pushed elsewhere by other rules;
				// the box remembers what it generated so the rule does
				// not regenerate (and re-push) forever.
				key := "replicated:" + replica.String()
				already := false
				if b.Ext != nil {
					_, already = b.Ext[key]
				}
				if !have[replica.String()] && !already {
					return &repl{newPred: replica}
				}
			}
		}
		return nil
	}
	return &Rule{
		Name:     "predicate-replication",
		Class:    "predmigration",
		Priority: 58,
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return match(ctx, b) != nil
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			r := match(ctx, b)
			b.Preds = append(b.Preds, &qgm.Predicate{Expr: r.newPred})
			if b.Ext == nil {
				b.Ext = map[string]any{}
			}
			b.Ext["replicated:"+r.newPred.String()] = true
			return nil
		},
	}
}
