package qgm

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/sql"
)

// paperCatalog builds the quotations/inventory schema used throughout
// the paper's examples.
func paperCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.CreateTable("QUOTATIONS", []catalog.Column{
		{Name: "PARTNO", Type: datum.TInt},
		{Name: "PRICE", Type: datum.TFloat},
		{Name: "ORDER_QTY", Type: datum.TInt},
		{Name: "SUPPNO", Type: datum.TInt},
	}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("INVENTORY", []catalog.Column{
		{Name: "PARTNO", Type: datum.TInt},
		{Name: "ONHAND_QTY", Type: datum.TInt},
		{Name: "TYPE", Type: datum.TString},
	}, ""); err != nil {
		t.Fatal(err)
	}
	return c
}

func translate(t *testing.T, c *catalog.Catalog, src string) *Graph {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := TranslateStatement(c, stmt)
	if err != nil {
		t.Fatalf("translate %q: %v", src, err)
	}
	return g
}

func translateErr(t *testing.T, c *catalog.Catalog, src string) error {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = TranslateStatement(c, stmt)
	if err == nil {
		t.Fatalf("translate %q succeeded, want error", src)
	}
	return err
}

const paperQuery = `SELECT partno, price, order_qty FROM quotations Q1
	WHERE Q1.partno IN
	  (SELECT partno FROM inventory Q3
	   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`

// TestFigure2aQGM reproduces Figure 2(a): two SELECT boxes; the outer
// has setformer Q1 over quotations and existential quantifier Q2 over
// the inner box; the inner has setformer Q3 over inventory with a
// correlated conjunct and a local conjunct.
func TestFigure2aQGM(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, paperQuery)

	top := g.Top
	if top.Kind != KindSelect {
		t.Fatalf("top kind = %s", top.Kind)
	}
	if got := top.HeadNames(); !equalStrings(got, []string{"PARTNO", "PRICE", "ORDER_QTY"}) {
		t.Fatalf("head = %v", got)
	}
	if len(top.Quants) != 2 {
		t.Fatalf("outer box has %d quantifiers, want 2 (Q1, Q2)", len(top.Quants))
	}
	q1 := top.Quants[0]
	if q1.Type != ForEach || q1.Input.Kind != KindBase || q1.Input.Table.Name != "QUOTATIONS" {
		t.Errorf("Q1 = %s over %s", q1.Type, q1.Input.Kind)
	}
	q2 := top.Quants[1]
	if q2.Type != QExists || q2.SetPred != "ANY" || q2.Negated {
		t.Errorf("Q2 type = %s setpred=%s negated=%v; want existential", q2.Type, q2.SetPred, q2.Negated)
	}
	inner := q2.Input
	if inner.Kind != KindSelect {
		t.Fatalf("inner kind = %s", inner.Kind)
	}
	// The IN predicate is a qualifier edge between Q1 and Q2.
	if len(top.Preds) != 1 {
		t.Fatalf("outer preds = %d, want 1", len(top.Preds))
	}
	if e := top.Preds[0].Expr; !expr.RefersTo(e, q1.QID) || !expr.RefersTo(e, q2.QID) {
		t.Errorf("IN predicate %s, want it to connect q%d and q%d", e, q1.QID, q2.QID)
	}
	// Inner box: setformer Q3 over inventory, two conjuncts — one a
	// loop on Q3, one a correlation edge to Q1.
	if len(inner.Quants) != 1 {
		t.Fatalf("inner quants = %d", len(inner.Quants))
	}
	q3 := inner.Quants[0]
	if q3.Type != ForEach || q3.Input.Table.Name != "INVENTORY" {
		t.Errorf("Q3 = %s over %v", q3.Type, q3.Input.Table)
	}
	if len(inner.Preds) != 2 {
		t.Fatalf("inner preds = %d, want 2 conjuncts", len(inner.Preds))
	}
	var sawCorrelated, sawLocal bool
	for _, p := range inner.Preds {
		if expr.RefersTo(p.Expr, q1.QID) && expr.RefersTo(p.Expr, q3.QID) {
			sawCorrelated = true
		}
		if expr.RefersOnlyTo(p.Expr, q3.QID) {
			sawLocal = true
		}
	}
	if !sawCorrelated || !sawLocal {
		t.Errorf("conjunct shapes wrong: correlated=%v local=%v", sawCorrelated, sawLocal)
	}
	// Rendering mentions the key constructs (diagnostic form of Fig 2a).
	s := g.String()
	for _, want := range []string{"type=E", "type=F", "QUOTATIONS", "INVENTORY", "'CPU'"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSharedBaseBox(t *testing.T) {
	// "Many iterators can range over the same input table."
	c := paperCatalog(t)
	g := translate(t, c, "SELECT a.partno FROM quotations a, quotations b WHERE a.partno = b.partno")
	top := g.Top
	if len(top.Quants) != 2 {
		t.Fatal("two quantifiers")
	}
	if top.Quants[0].Input != top.Quants[1].Input {
		t.Error("both quantifiers must range over the same BASE box")
	}
}

func TestStarExpansion(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "SELECT * FROM inventory")
	if got := g.Top.HeadNames(); !equalStrings(got, []string{"PARTNO", "ONHAND_QTY", "TYPE"}) {
		t.Errorf("head = %v", got)
	}
	g = translate(t, c, "SELECT q.*, i.partno FROM quotations q, inventory i")
	if len(g.Top.Head) != 5 {
		t.Errorf("q.* + i.partno = %d cols", len(g.Top.Head))
	}
}

func TestNameResolutionErrors(t *testing.T) {
	c := paperCatalog(t)
	translateErr(t, c, "SELECT nope FROM inventory")
	translateErr(t, c, "SELECT partno FROM quotations, inventory") // ambiguous
	translateErr(t, c, "SELECT x.partno FROM inventory")           // unknown alias
	translateErr(t, c, "SELECT partno FROM no_such_table")
	translateErr(t, c, "SELECT * FROM inventory a, quotations a") // dup alias
	translateErr(t, c, "SELECT NO_SUCH_FUNC(partno) FROM inventory")
	translateErr(t, c, "SELECT partno FROM inventory WHERE SUM(partno) > 1") // agg in WHERE
	translateErr(t, c, "SELECT SUM(partno), onhand_qty FROM inventory")      // non-grouped col
}

func TestAggregationSplit(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, `SELECT type, COUNT(*), SUM(onhand_qty) total
		FROM inventory WHERE partno > 0 GROUP BY type HAVING COUNT(*) > 1`)
	// Three boxes above base: lower SELECT, GROUPBY, upper SELECT.
	top := g.Top
	if top.Kind != KindSelect || len(top.Preds) != 1 {
		t.Fatalf("upper box: kind=%s preds=%d", top.Kind, len(top.Preds))
	}
	gb := top.Quants[0].Input
	if gb.Kind != KindGroupBy || len(gb.GroupBy) != 1 {
		t.Fatalf("group box: %s groupby=%d", gb.Kind, len(gb.GroupBy))
	}
	if len(gb.Head) != 3 { // group col + 2 aggregates
		t.Fatalf("group head = %d", len(gb.Head))
	}
	lower := gb.Quants[0].Input
	if lower.Kind != KindSelect || len(lower.Preds) != 1 {
		t.Fatalf("lower box: %s preds=%d", lower.Kind, len(lower.Preds))
	}
	if got := top.HeadNames(); !equalStrings(got, []string{"TYPE", "COUNT", "TOTAL"}) {
		t.Errorf("output names = %v", got)
	}
	// GROUPBY output is distinct by construction.
	if !gb.OutputDistinct() {
		t.Error("group output must be distinct")
	}
}

func TestScalarAggregate(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "SELECT COUNT(*), MAX(price) FROM quotations")
	gb := g.Top.Quants[0].Input
	if gb.Kind != KindGroupBy || len(gb.GroupBy) != 0 {
		t.Fatalf("scalar aggregate: %s groupby=%d", gb.Kind, len(gb.GroupBy))
	}
}

func TestDistinct(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "SELECT DISTINCT type FROM inventory")
	if g.Top.Distinct != EnforceDistinct || !g.Top.OutputDistinct() {
		t.Error("distinct box")
	}
	g = translate(t, c, "SELECT type FROM inventory")
	if g.Top.OutputDistinct() {
		t.Error("non-distinct box")
	}
}

func TestSetOperations(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, `SELECT partno FROM quotations UNION SELECT partno FROM inventory`)
	if g.Top.Kind != KindUnion || g.Top.SetAll || len(g.Top.Quants) != 2 {
		t.Fatalf("union box: %+v", g.Top)
	}
	if !g.Top.OutputDistinct() {
		t.Error("UNION (distinct) output distinct")
	}
	g = translate(t, c, `SELECT partno FROM quotations UNION ALL SELECT partno FROM inventory`)
	if !g.Top.SetAll || g.Top.OutputDistinct() {
		t.Error("UNION ALL")
	}
	g = translate(t, c, `SELECT partno FROM quotations INTERSECT SELECT partno FROM inventory`)
	if g.Top.Kind != KindIntersect {
		t.Error("intersect")
	}
	g = translate(t, c, `SELECT partno FROM quotations EXCEPT SELECT partno FROM inventory`)
	if g.Top.Kind != KindExcept {
		t.Error("except")
	}
	translateErr(t, c, "SELECT partno, price FROM quotations UNION SELECT partno FROM inventory")
	translateErr(t, c, "SELECT type FROM inventory UNION SELECT partno FROM inventory")
}

func TestOrderByLimit(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "SELECT partno, price FROM quotations ORDER BY price DESC, 1 LIMIT 5")
	if len(g.OrderBy) != 2 || !g.OrderBy[0].Desc || g.OrderBy[0].Col != 1 || g.OrderBy[1].Col != 0 {
		t.Errorf("order by = %+v", g.OrderBy)
	}
	if g.Limit == nil {
		t.Error("limit")
	}
	translateErr(t, c, "SELECT partno FROM quotations ORDER BY 99")
	// Sort keys outside the select list become hidden head columns.
	g = translate(t, c, "SELECT partno FROM quotations ORDER BY price + 1 DESC")
	if g.HiddenOrderCols != 1 || len(g.Top.Head) != 2 {
		t.Errorf("hidden order col: hidden=%d head=%d", g.HiddenOrderCols, len(g.Top.Head))
	}
	// ...but not on DISTINCT boxes (it would change dedup semantics).
	translateErr(t, c, "SELECT DISTINCT partno FROM quotations ORDER BY price")
	// ORDER BY in a subquery is rejected.
	translateErr(t, c, "SELECT * FROM (SELECT partno FROM quotations ORDER BY partno) x")
}

func TestTableExpressionSharing(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, `WITH pricey AS (SELECT partno FROM quotations WHERE price > 100)
		SELECT a.partno FROM pricey a, pricey b WHERE a.partno = b.partno`)
	top := g.Top
	if len(top.Quants) != 2 {
		t.Fatal("two refs")
	}
	if top.Quants[0].Input != top.Quants[1].Input {
		t.Error("both references must share the single table-expression box")
	}
}

func TestViewTranslation(t *testing.T) {
	c := paperCatalog(t)
	if err := c.CreateView("cpuonly", nil, "SELECT partno, onhand_qty FROM inventory WHERE type = 'CPU'"); err != nil {
		t.Fatal(err)
	}
	// Views usable like base tables — even joined with aggregates
	// (SQL's restriction Hydrogen removes).
	g := translate(t, c, `SELECT q.partno, v.onhand_qty FROM quotations q, cpuonly v
		WHERE q.partno = v.partno`)
	var viewBox *Box
	for _, q := range g.Top.Quants {
		if q.Input.Kind == KindSelect {
			viewBox = q.Input
		}
	}
	if viewBox == nil {
		t.Fatal("view translated to a select box")
	}
	if len(viewBox.Preds) != 1 {
		t.Error("view predicate present")
	}
	// View with column renames.
	if err := c.CreateView("v2", []string{"P", "Q"}, "SELECT partno, onhand_qty FROM inventory"); err != nil {
		t.Fatal(err)
	}
	g = translate(t, c, "SELECT p FROM v2 WHERE q > 0")
	if g.Top.HeadNames()[0] != "P" {
		t.Error("renamed view column")
	}
}

func TestRecursiveCTE(t *testing.T) {
	c := paperCatalog(t)
	if _, err := c.CreateTable("EDGES", []catalog.Column{
		{Name: "SRC", Type: datum.TInt}, {Name: "DST", Type: datum.TInt},
	}, ""); err != nil {
		t.Fatal(err)
	}
	g := translate(t, c, `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT * FROM reach`)
	// Find the recursive union box.
	var u *Box
	for _, b := range g.Boxes {
		if b.Recursive {
			u = b
		}
	}
	if u == nil {
		t.Fatal("no recursive box")
	}
	if u.Kind != KindUnion || len(u.Quants) != 2 {
		t.Fatalf("recursive union: %s quants=%d", u.Kind, len(u.Quants))
	}
	// The recursive branch must reference u — a cyclic range edge.
	rec := u.Quants[1].Input
	cyclic := false
	for _, q := range rec.Quants {
		if q.Input == u {
			cyclic = true
		}
	}
	if !cyclic {
		t.Error("recursive branch must range over the union box itself")
	}
	if got := u.HeadNames(); !equalStrings(got, []string{"SRC", "DST"}) {
		t.Errorf("cte head = %v", got)
	}
}

func TestQuantifiedComparisons(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, `SELECT partno FROM quotations
		WHERE price > ALL (SELECT price FROM quotations WHERE suppno = 3)`)
	var qa *Quantifier
	for _, q := range g.Top.Quants {
		if q.Type == QAll {
			qa = q
		}
	}
	if qa == nil || qa.SetPred != "ALL" {
		t.Fatal("ALL quantifier")
	}
	// NOT IN becomes a negated existential.
	g = translate(t, c, `SELECT partno FROM quotations
		WHERE partno NOT IN (SELECT partno FROM inventory)`)
	var qe *Quantifier
	for _, q := range g.Top.Quants {
		if q.Type == QExists {
			qe = q
		}
	}
	if qe == nil || !qe.Negated {
		t.Fatal("NOT IN must be a negated E quantifier")
	}
	// NOT EXISTS likewise.
	g = translate(t, c, `SELECT partno FROM quotations q
		WHERE NOT EXISTS (SELECT 1 FROM inventory i WHERE i.partno = q.partno)`)
	qe = nil
	for _, q := range g.Top.Quants {
		if q.Type == QExists {
			qe = q
		}
	}
	if qe == nil || !qe.Negated {
		t.Fatal("NOT EXISTS must be a negated E quantifier")
	}
}

func TestCustomSetPredicateQuantifier(t *testing.T) {
	c := paperCatalog(t)
	// Without registration the quantifier is rejected...
	translateErr(t, c, "SELECT partno FROM quotations WHERE price = MAJORITY (SELECT price FROM quotations)")
	// ...after registration it becomes a quantifier of its own type.
	c.Funcs.RegisterSetPredicate(&expr.SetPredicateFunc{
		Name:     "MAJORITY",
		NewState: func() expr.SetPredState { return &majState{} },
	})
	g := translate(t, c, "SELECT partno FROM quotations WHERE price = MAJORITY (SELECT price FROM quotations)")
	var qm *Quantifier
	for _, q := range g.Top.Quants {
		if q.Type == "MAJORITY" {
			qm = q
		}
	}
	if qm == nil || qm.SetPred != "MAJORITY" {
		t.Fatal("MAJORITY quantifier type")
	}
}

type majState struct{ yes, total int }

func (m *majState) Add(t datum.Tristate) {
	m.total++
	if t == datum.True {
		m.yes++
	}
}
func (m *majState) Result() datum.Tristate {
	if m.yes*2 > m.total {
		return datum.True
	}
	return datum.False
}
func (m *majState) Decided() bool { return false }

func TestScalarSubquery(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, `SELECT partno FROM quotations
		WHERE price = (SELECT MAX(price) FROM quotations)`)
	var qs *Quantifier
	for _, q := range g.Top.Quants {
		if q.Type == QScalar {
			qs = q
		}
	}
	if qs == nil {
		t.Fatal("scalar quantifier")
	}
	// Scalar subquery in the select list.
	g = translate(t, c, `SELECT partno, (SELECT MAX(onhand_qty) FROM inventory) m FROM quotations`)
	qs = nil
	for _, q := range g.Top.Quants {
		if q.Type == QScalar {
			qs = q
		}
	}
	if qs == nil {
		t.Fatal("scalar quantifier from select list")
	}
}

func TestORSubqueryDeferred(t *testing.T) {
	// The paper's section-7 query: OR of a simple predicate and a
	// scalar-subquery predicate. The subquery must NOT become a
	// quantifier (that would change semantics); it stays as a deferred
	// subplan inside the OR expression.
	c := paperCatalog(t)
	g := translate(t, c, `SELECT * FROM quotations t1
		WHERE t1.partno = 5 OR t1.order_qty =
		  (SELECT onhand_qty FROM inventory t2 WHERE t2.partno = 16)`)
	if len(g.Top.Quants) != 1 {
		t.Fatalf("outer quants = %d; subquery under OR must not become a quantifier", len(g.Top.Quants))
	}
	if len(g.Top.Preds) != 1 {
		t.Fatal("one OR predicate")
	}
	if !expr.HasSubplan(g.Top.Preds[0].Expr) {
		t.Error("OR predicate must contain a deferred subplan")
	}
}

func TestOuterJoinTranslation(t *testing.T) {
	// Section 4's worked extension: LEFT OUTER JOIN with the PF
	// setformer type.
	c := paperCatalog(t)
	g := translate(t, c, `SELECT q.partno, i.onhand_qty
		FROM quotations q LEFT OUTER JOIN inventory i ON q.partno = i.partno
		WHERE q.price > 10`)
	top := g.Top
	if len(top.Quants) != 1 {
		t.Fatalf("top quants = %d", len(top.Quants))
	}
	oj := top.Quants[0].Input
	if oj.Kind != KindOuterJoin {
		t.Fatalf("expected outer join box, got %s", oj.Kind)
	}
	if len(oj.Quants) != 2 {
		t.Fatal("outer join needs 2 quantifiers")
	}
	if oj.Quants[0].Type != PreserveForeach {
		t.Errorf("preserved side type = %s, want PF", oj.Quants[0].Type)
	}
	if oj.Quants[1].Type != ForEach {
		t.Errorf("null-producing side type = %s, want F", oj.Quants[1].Type)
	}
	if len(oj.Preds) != 1 {
		t.Error("ON predicate inside the join box")
	}
	// WHERE predicate stays on the outer select box.
	if len(top.Preds) != 1 {
		t.Error("WHERE predicate on the select box")
	}
	// RIGHT OUTER normalizes to LEFT with swapped sides.
	g = translate(t, c, `SELECT q.partno FROM inventory i RIGHT OUTER JOIN quotations q ON q.partno = i.partno`)
	oj = g.Top.Quants[0].Input
	if oj.Quants[0].Type != PreserveForeach || oj.Quants[0].Name != "q" {
		t.Errorf("right outer normalization: %s/%s", oj.Quants[0].Name, oj.Quants[0].Type)
	}
}

func TestInnerJoinDissolves(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, `SELECT q.partno FROM quotations q JOIN inventory i ON q.partno = i.partno`)
	if len(g.Top.Quants) != 2 || len(g.Top.Preds) != 1 {
		t.Errorf("inner join should dissolve: quants=%d preds=%d", len(g.Top.Quants), len(g.Top.Preds))
	}
}

func TestTableFunctionBox(t *testing.T) {
	c := paperCatalog(t)
	c.Funcs.RegisterTableFunc(&expr.TableFunc{
		Name: "SAMPLE", NumTables: 1, NumScalars: 1,
		OutputCols: func(in [][]expr.ColumnDef, _ []datum.Value) ([]expr.ColumnDef, error) {
			return in[0], nil
		},
		Eval: func(in []*expr.Relation, scalars []datum.Value) (*expr.Relation, error) {
			n := int(scalars[0].Int())
			if n > len(in[0].Rows) {
				n = len(in[0].Rows)
			}
			return &expr.Relation{Cols: in[0].Cols, Rows: in[0].Rows[:n]}, nil
		},
	})
	g := translate(t, c, "SELECT partno FROM SAMPLE(quotations, 10) s WHERE price > 1")
	var tf *Box
	for _, b := range g.Boxes {
		if b.Kind == KindTableFn {
			tf = b
		}
	}
	if tf == nil {
		t.Fatal("table function box")
	}
	if tf.TableFn.Name != "SAMPLE" || len(tf.TFScalarArgs) != 1 || len(tf.Quants) != 1 {
		t.Errorf("table fn box = %+v", tf)
	}
	if len(tf.Head) != 4 {
		t.Errorf("sample output cols = %d", len(tf.Head))
	}
	translateErr(t, c, "SELECT * FROM SAMPLE(quotations) s")               // missing scalar
	translateErr(t, c, "SELECT * FROM NOSUCHFN(quotations, 1) s")          // unknown
	translateErr(t, c, "SELECT * FROM SAMPLE(quotations, inventory, 1) s") // arity
}

func TestInsertTranslation(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "INSERT INTO inventory (partno, onhand_qty, type) VALUES (1, 10, 'CPU'), (2, 0, 'DISK')")
	if g.Top.Kind != KindInsert || g.Top.TargetTable.Name != "INVENTORY" {
		t.Fatalf("insert box: %+v", g.Top)
	}
	src := g.Top.Quants[0].Input
	if src.Kind != KindValues || len(src.Rows) != 2 {
		t.Fatalf("values box: %s rows=%d", src.Kind, len(src.Rows))
	}
	// INSERT ... SELECT.
	g = translate(t, c, "INSERT INTO inventory SELECT partno, order_qty, 'NEW' FROM quotations")
	if g.Top.Quants[0].Input.Kind != KindSelect {
		t.Error("insert-select source")
	}
	translateErr(t, c, "INSERT INTO nope VALUES (1)")
	translateErr(t, c, "INSERT INTO inventory (nope) VALUES (1)")
	translateErr(t, c, "INSERT INTO inventory (partno) VALUES (1, 2)")
	translateErr(t, c, "INSERT INTO inventory SELECT partno FROM quotations")
}

func TestUpdateDeleteTranslation(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "UPDATE inventory SET onhand_qty = onhand_qty + 5 WHERE type = 'CPU'")
	if g.Top.Kind != KindUpdate || len(g.Top.TargetCols) != 1 || g.Top.TargetCols[0] != 1 {
		t.Fatalf("update box: %+v", g.Top)
	}
	if len(g.Top.Preds) != 1 {
		t.Error("update predicate")
	}
	g = translate(t, c, "DELETE FROM inventory WHERE onhand_qty = 0")
	if g.Top.Kind != KindDelete || len(g.Top.Preds) != 1 {
		t.Fatalf("delete box: %+v", g.Top)
	}
	translateErr(t, c, "UPDATE inventory SET nope = 1")
	translateErr(t, c, "DELETE FROM nope")
}

func TestUpdateThroughView(t *testing.T) {
	c := paperCatalog(t)
	// Updatable view: simple projection + selection.
	if err := c.CreateView("cpus", nil, "SELECT partno, onhand_qty FROM inventory WHERE type = 'CPU'"); err != nil {
		t.Fatal(err)
	}
	g := translate(t, c, "UPDATE cpus SET onhand_qty = 0 WHERE partno = 7")
	if g.Top.Kind != KindUpdate || g.Top.TargetTable.Name != "INVENTORY" {
		t.Fatalf("view update resolves to base: %+v", g.Top.TargetTable)
	}
	// Both the user's WHERE and the view's WHERE must be present.
	if len(g.Top.Preds) != 2 {
		t.Errorf("view update preds = %d, want 2", len(g.Top.Preds))
	}
	// Ambiguous view: aggregation.
	if err := c.CreateView("agg_v", nil, "SELECT type, COUNT(*) n FROM inventory GROUP BY type"); err != nil {
		t.Fatal(err)
	}
	translateErr(t, c, "UPDATE agg_v SET n = 0")
	// Delete through a view.
	g = translate(t, c, "DELETE FROM cpus WHERE onhand_qty = 0")
	if g.Top.Kind != KindDelete || g.Top.TargetTable.Name != "INVENTORY" || len(g.Top.Preds) != 2 {
		t.Error("view delete")
	}
}

func TestHostVariableParam(t *testing.T) {
	c := paperCatalog(t)
	g := translate(t, c, "SELECT partno FROM quotations WHERE price > :minprice")
	if !g.Params["minprice"] {
		t.Error("param recorded")
	}
}

func TestCorrelatedFromSubquery(t *testing.T) {
	c := paperCatalog(t)
	// FROM subquery sees outer scope of the enclosing query when this
	// core is itself a subquery.
	g := translate(t, c, `SELECT partno FROM quotations q WHERE EXISTS
		(SELECT 1 FROM (SELECT partno FROM inventory) i WHERE i.partno = q.partno)`)
	if g == nil {
		t.Fatal("translation failed")
	}
}

func TestKim82Subqueries(t *testing.T) {
	c := paperCatalog(t)
	if _, err := c.CreateTable("EMP", []catalog.Column{
		{Name: "ID", Type: datum.TInt}, {Name: "NAME", Type: datum.TString},
		{Name: "SAL", Type: datum.TInt}, {Name: "MGR", Type: datum.TInt},
	}, ""); err != nil {
		t.Fatal(err)
	}
	g := translate(t, c, `SELECT e.name FROM emp e WHERE e.sal >
		(SELECT m.sal FROM emp m WHERE m.id = e.mgr)`)
	var qs *Quantifier
	for _, q := range g.Top.Quants {
		if q.Type == QScalar {
			qs = q
		}
	}
	if qs == nil {
		t.Fatal("scalar quantifier for correlated subquery")
	}
}
