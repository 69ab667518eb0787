// Command dbc is the "database customizer tour": one program that
// exercises every extension axis the paper describes, in the order the
// paper introduces them —
//
//  1. an externally defined column type           (section 2, WILM88)
//  2. a scalar function (the paper's Area)        (section 2)
//  3. an aggregate function (StandardDeviation)   (section 2)
//  4. a set predicate function (MAJORITY)         (section 2)
//  5. a table function (SAMPLE)                   (section 2)
//  6. a storage manager (fixed-length records)    (section 1, LIND87)
//  7. an access method (R-tree)                   (section 1, GUTT84)
//  8. a query rewrite rule                        (section 5, HASA88)
//  9. an optimizer STAR alternative               (section 6, LOHM88)
//  10. a QES operator                             (section 7)
//
// Every extension is registered through the public API; no internal
// component is modified — the paper's definition of extensibility.
package main

import (
	"fmt"
	"strings"

	starburst "repro"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

func main() {
	db := starburst.Open()

	// (1) Externally defined type: POINT, ordered by distance from the
	// origin.
	pointID, err := db.RegisterType(starburst.TypeDef{
		Name: "POINT",
		Compare: func(a, b any) int {
			pa, pb := a.([2]float64), b.([2]float64)
			da := pa[0]*pa[0] + pa[1]*pa[1]
			dbb := pb[0]*pb[0] + pb[1]*pb[1]
			switch {
			case da < dbb:
				return -1
			case da > dbb:
				return 1
			}
			return 0
		},
		Format: func(a any) string {
			p := a.([2]float64)
			return fmt.Sprintf("(%g,%g)", p[0], p[1])
		},
	})
	check(err)
	fmt.Printf("1. registered type POINT (id %d)\n", pointID)

	// (2) Scalar function: the paper's Area(Width, Length).
	check(db.RegisterScalarFunc(&starburst.ScalarFunc{
		Name: "AREA", MinArgs: 2, MaxArgs: 2,
		ReturnType: func(args []starburst.TypeID) (starburst.TypeID, error) {
			return datum.TFloat, nil
		},
		Eval: func(args []starburst.Value) (starburst.Value, error) {
			if args[0].IsNull() || args[1].IsNull() {
				return starburst.Null, nil
			}
			return starburst.NewFloat(args[0].Float() * args[1].Float()), nil
		},
	}))
	fmt.Println("2. registered scalar function AREA(width, length)")

	// (3) Aggregate: the paper's StandardDeviation(Salary).
	check(db.RegisterAggregate(&starburst.AggregateFunc{
		Name: "STDDEV", EmptyIsNull: true,
		ReturnType: func(starburst.TypeID) (starburst.TypeID, error) { return datum.TFloat, nil },
		NewState:   func() starburst.AggState { return &stddev{} },
	}))
	fmt.Println("3. registered aggregate STDDEV(x)")

	// (4) Set predicate: the paper's MAJORITY.
	check(db.RegisterSetPredicate(&starburst.SetPredicateFunc{
		Name:     "MAJORITY",
		NewState: func() starburst.SetPredState { return &majority{} },
	}))
	fmt.Println("4. registered set predicate MAJORITY")

	// (5) Table function: the paper's SAMPLE(table, int).
	check(db.RegisterTableFunc(&starburst.TableFunc{
		Name: "SAMPLE", NumTables: 1, NumScalars: 1,
		OutputCols: func(in [][]starburst.ColumnDef, _ []starburst.Value) ([]starburst.ColumnDef, error) {
			return in[0], nil
		},
		Eval: func(in []*starburst.Relation, scalars []starburst.Value) (*starburst.Relation, error) {
			n := int(scalars[0].Int())
			if n > len(in[0].Rows) {
				n = len(in[0].Rows)
			}
			return &starburst.Relation{Cols: in[0].Cols, Rows: in[0].Rows[:n]}, nil
		},
	}))
	fmt.Println("5. registered table function SAMPLE(t, n)")

	// (6) Storage manager + (7) access method. FIXED is the paper's
	// fixed-length manager, configured from the built-in heap: denser
	// pages, and writes of variable-length values rejected.
	db.RegisterStorageManager(storage.NewFixedManager())
	db.RegisterAccessMethod(storage.RTreeMethod{})
	fmt.Println("6. registered storage manager FIXED")
	fmt.Println("7. registered access method RTREE")

	// (8) Rewrite rule: drop tautological "col = col" predicates,
	// preserving NULL semantics via IS NOT NULL.
	check(db.RegisterRewriteRule(&starburst.RewriteRule{
		Name:  "drop-self-equality",
		Class: "misc",
		Condition: func(ctx *starburst.RewriteContext, b *qgm.Box) bool {
			for _, p := range b.Preds {
				if isSelfEq(p) {
					return true
				}
			}
			return false
		},
		Action: func(ctx *starburst.RewriteContext, b *qgm.Box) error {
			for _, p := range b.Preds {
				if isSelfEq(p) {
					cmp := p.Expr.(*expr.Cmp)
					p.Expr = &expr.IsNull{E: cmp.L, Negated: true}
				}
			}
			return nil
		},
	}))
	fmt.Println("8. registered rewrite rule drop-self-equality")

	// (9) + (10) Optimizer STAR emitting a DBC LOLEPOP, with its QES
	// executor: an "audit scan" that counts rows flowing out of every
	// table scan on the SENSORS table.
	audited := int64(0)
	db.AddSTARAlternative("ACCESS", &starburst.STARAlternative{
		Name: "AuditedScan",
		Condition: func(ctx *starburst.OptCtx, a starburst.OptArgs) bool {
			return a.Quant.Input.Kind == "BASE" && a.Quant.Input.Table.Name == "SENSORS" &&
				a.JoinKind != "audited" // recursion guard via spare field
		},
		Build: func(ctx *starburst.OptCtx, a starburst.OptArgs) ([]*starburst.PlanNode, error) {
			inner, err := ctx.Evaluate("ACCESS", starburst.OptArgs{
				Quant: a.Quant, Preds: a.Preds, JoinKind: "audited"})
			if err != nil || len(inner) == 0 {
				return nil, err
			}
			best := inner[0]
			for _, p := range inner {
				if p.Op != "AUDIT" && p.Props.Cost < best.Props.Cost {
					best = p
				}
			}
			n := &starburst.PlanNode{
				Op: "AUDIT", Inputs: []*starburst.PlanNode{best},
				Cols: best.Cols, Types: best.Types, Props: best.Props,
			}
			n.Props.Cost *= 0.999 // preferred when applicable
			return []*starburst.PlanNode{n}, nil
		},
	})
	db.RegisterOperator("AUDIT", func(b *exec.Builder, n *plan.Node, inputs []exec.Stream, corr map[plan.ColRef]int) (exec.Stream, error) {
		return &auditOp{in: inputs[0], count: &audited}, nil
	})
	fmt.Println("9./10. registered STAR alternative AuditedScan + QES operator AUDIT")

	// ------------------------------------------------------------------
	// Use everything at once.
	fmt.Println("\n=== Using the extended system ===")
	db.MustExec("CREATE TABLE sensors (id INT, w FLOAT, l FLOAT, x FLOAT, y FLOAT) USING heap", nil)
	db.MustExec("CREATE TABLE readings (sensor INT, val INT) USING fixed", nil)
	for i := 1; i <= 30; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO sensors VALUES (%d, %d.0, %d.0, %d.0, %d.0)",
			i, i%5+1, i%7+1, i%6, i/6), nil)
		for r := 0; r < 4; r++ {
			db.MustExec(fmt.Sprintf("INSERT INTO readings VALUES (%d, %d)", i, (i*r)%13), nil)
		}
	}
	db.MustExec("CREATE INDEX sensors_xy ON sensors (x, y) USING rtree", nil)
	db.MustExec("ANALYZE sensors", nil)
	db.MustExec("ANALYZE readings", nil)

	q := `SELECT s.id, AREA(s.w, s.l) a
	FROM SAMPLE(sensors, 25) s
	WHERE s.x >= 1 AND s.x <= 3 AND s.y >= 1 AND s.y <= 3
	  AND AREA(s.w, s.l) > MAJORITY (SELECT AREA(w, l) FROM sensors)
	ORDER BY a DESC LIMIT 5`
	res := db.MustExec(q, nil)
	fmt.Println("sensors in window with above-majority area:")
	for _, row := range res.Rows {
		fmt.Printf("  sensor %v area %v\n", row[0], row[1])
	}

	res = db.MustExec(`SELECT sensor, STDDEV(val) FROM readings GROUP BY sensor
		HAVING STDDEV(val) > 20 ORDER BY 1 LIMIT 3`, nil)
	fmt.Println("high-variance sensors (DBC aggregate):")
	for _, row := range res.Rows {
		fmt.Printf("  sensor %v variance %v\n", row[0], row[1])
	}

	// The rewrite rule and audit operator at work.
	res = db.MustExec("SELECT COUNT(*) FROM sensors WHERE id = id", nil)
	fmt.Printf("drop-self-equality rewrote 'id = id'; count = %v\n", res.Rows[0][0])
	fmt.Printf("AUDIT operator observed %d sensor rows in total\n", audited)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func isSelfEq(p *qgm.Predicate) bool {
	cmp, ok := p.Expr.(*expr.Cmp)
	if !ok || cmp.Op != expr.OpEq {
		return false
	}
	lc, lok := cmp.L.(*expr.Col)
	rc, rok := cmp.R.(*expr.Col)
	return lok && rok && lc.QID == rc.QID && lc.Ord == rc.Ord &&
		!strings.Contains(p.Expr.String(), "IS NOT NULL")
}

type stddev struct {
	n          int64
	sum, sumSq float64
}

func (s *stddev) Add(v starburst.Value) error {
	if v.IsNull() {
		return nil
	}
	s.n++
	s.sum += v.Float()
	s.sumSq += v.Float() * v.Float()
	return nil
}

func (s *stddev) Result() starburst.Value {
	if s.n == 0 {
		return starburst.Null
	}
	mean := s.sum / float64(s.n)
	return starburst.NewFloat(s.sumSq/float64(s.n) - mean*mean)
}

type majority struct{ yes, total int }

func (m *majority) Add(t datum.Tristate) {
	m.total++
	if t == datum.True {
		m.yes++
	}
}

func (m *majority) Result() datum.Tristate {
	if m.yes*2 > m.total {
		return datum.True
	}
	return datum.False
}

func (m *majority) Decided() bool { return false }

type auditOp struct {
	in    exec.Stream
	count *int64
}

func (a *auditOp) Open(ctx *exec.Ctx) error { return a.in.Open(ctx) }

func (a *auditOp) Next(ctx *exec.Ctx) (datum.Row, bool, error) {
	row, ok, err := a.in.Next(ctx)
	if ok {
		*a.count++
	}
	return row, ok, err
}

func (a *auditOp) Close(ctx *exec.Ctx) error { return a.in.Close(ctx) }

// rewrite import is used via the type alias in starburst; keep the
// package linked for documentation purposes.
var _ = rewrite.Options{}
