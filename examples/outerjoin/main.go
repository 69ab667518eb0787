// Command outerjoin reproduces the paper's worked extension example
// (sections 4, 5 and 7): a database customizer (DBC) adds left outer
// join to the system.
//
// The pieces, mirroring the paper:
//
//   - QGM: the preserved side's setformer gets the new type PF
//     (Preserve Foreach) instead of F — shown in the printed QGM;
//   - query rewrite: the base predicate push-down rules must NOT apply
//     to the PF setformer "as they would then eliminate tuples which
//     should be preserved"; instead the DBC registers his own rule that
//     pushes predicates *through* the outer join to the operation the
//     PF setformer ranges over;
//   - execution: left outer join is a join KIND, reusing the existing
//     join METHODS (nested loop, hash).
package main

import (
	"fmt"

	starburst "repro"
	"repro/internal/expr"
	"repro/internal/qgm"
	"repro/internal/rewrite"
)

// pushThroughPF is the DBC's rewrite rule: a predicate of the outer-join
// box that references only columns of the PF setformer, where the PF
// setformer ranges over a SELECT box, is pushed through the outer join
// into that box. It is sound because such predicates (placed there by a
// WHERE above, or pushed from above by the DBC's receive rule) restrict
// only preserved-side tuples, and restricting them before the join
// preserves exactly the same tuples.
//
// Note the contrast with the base rule: predicates must never be pushed
// down *from* the outer join's own join condition — those decide
// matching, not survival.
func pushThroughPF() *rewrite.Rule {
	// The rule moves WHERE predicates from the SELECT box above the
	// outer join (where the ON/WHERE distinction is explicit: WHERE
	// conjuncts live on the SELECT box, ON conjuncts inside the join
	// box) through the join quantifier onto the PF side's input box.
	match := func(ctx *rewrite.Context, b *qgm.Box) (*qgm.Predicate, *qgm.Quantifier, *qgm.Quantifier) {
		if b.Kind != qgm.KindSelect {
			return nil, nil, nil
		}
		for _, q := range b.Quants {
			if q.Type != qgm.ForEach || q.Input.Kind != qgm.KindOuterJoin {
				continue
			}
			oj := q.Input
			if _, sole := ctx.SoleRanger(oj); sole == nil {
				continue
			}
			for _, p := range b.Preds {
				if !expr.RefersOnlyTo(p.Expr, q.QID) {
					continue
				}
				// Does every referenced output column come from a PF
				// setformer column, and does that setformer range over
				// a SELECT box we can land the predicate in?
				var pf *qgm.Quantifier
				ok := expr.Walk(p.Expr, func(x expr.Expr) bool {
					c, isCol := x.(*expr.Col)
					if !isCol {
						return true
					}
					src, isCol := oj.Head[c.Ord].Expr.(*expr.Col)
					if !isCol {
						return false
					}
					srcQ := oj.FindQuant(src.QID)
					if srcQ == nil || srcQ.Type != qgm.PreserveForeach ||
						srcQ.Input.Kind != qgm.KindSelect || (pf != nil && pf != srcQ) {
						return false
					}
					pf = srcQ
					return true
				})
				if ok && pf != nil {
					if _, sole := ctx.SoleRanger(pf.Input); sole != nil {
						return p, q, pf
					}
				}
			}
		}
		return nil, nil, nil
	}
	return &rewrite.Rule{
		Name:     "outerjoin-push-through-pf",
		Class:    "predmigration",
		Priority: 65,
		Condition: func(ctx *rewrite.Context, b *qgm.Box) bool {
			p, _, _ := match(ctx, b)
			return p != nil
		},
		Action: func(ctx *rewrite.Context, b *qgm.Box) error {
			p, q, pf := match(ctx, b)
			oj := q.Input
			// Step 1: rewrite through the join output into PF-side
			// quantifier columns.
			inner := expr.SubstituteCols(p.Expr, func(c *expr.Col) expr.Expr {
				if c.QID != q.QID {
					return nil
				}
				return oj.Head[c.Ord].Expr
			})
			// Step 2: push through the PF quantifier into its input box.
			landed := expr.SubstituteCols(inner, func(c *expr.Col) expr.Expr {
				if c.QID != pf.QID {
					return nil
				}
				return pf.Input.Head[c.Ord].Expr
			})
			pf.Input.Preds = append(pf.Input.Preds, &qgm.Predicate{Expr: landed})
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

func main() {
	db := starburst.Open()
	db.MustExec(`CREATE TABLE quotations (partno INT, price FLOAT, order_qty INT)`, nil)
	db.MustExec(`CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)`, nil)
	for i := 1; i <= 8; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO quotations VALUES (%d, %d.50, %d)", i, 10*i, 5*i), nil)
	}
	for i := 1; i <= 5; i++ {
		typ := "'CPU'"
		if i%2 == 0 {
			typ = "'DISK'"
		}
		db.MustExec(fmt.Sprintf("INSERT INTO inventory VALUES (%d, %d, %s)", i, i, typ), nil)
	}

	// Register the DBC's rewrite rule.
	if err := db.RegisterRewriteRule(pushThroughPF()); err != nil {
		panic(err)
	}

	// The preserved side is a derived table so the pushed predicate has
	// an operation box to land in.
	query := `SELECT q.partno, q.price, i.onhand_qty
	FROM (SELECT partno, price, order_qty FROM quotations) q
	  LEFT OUTER JOIN inventory i ON q.partno = i.partno
	WHERE q.order_qty <= 20`

	fmt.Println("=== EXPLAIN: note the PF setformer and the pushed predicate ===")
	ex := db.MustExec("EXPLAIN "+query, nil)
	for _, row := range ex.Rows {
		fmt.Println(row[0].Str())
	}

	fmt.Println("=== Result (parts without inventory are preserved with NULLs) ===")
	res := db.MustExec(query+" ORDER BY 1", nil)
	fmt.Printf("%-8s %-8s %-10s\n", res.Columns[0], res.Columns[1], res.Columns[2])
	for _, row := range res.Rows {
		fmt.Printf("%-8v %-8v %-10v\n", row[0], row[1], row[2])
	}
}
