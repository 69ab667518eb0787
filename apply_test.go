package starburst

// Tests of the nested-loop apply operator that every NLJN and SUBQ node
// builds: a subquery answers the same as a SUBQ node and as an
// expression subplan, the cached inner results count against MaxMem,
// the nested-loop join runs inside exchange workers, and a join inside
// a subquery's inner keeps the subquery's correlation.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
)

func hasExprSubplan(n *plan.Node) bool {
	for _, p := range n.Preds {
		if expr.HasSubplan(p) {
			return true
		}
	}
	return false
}

// TestSubqueryPathsAgree runs each subquery flavor twice: as a top-level
// conjunct, which plans a SUBQ node, and behind a disjunct no row
// satisfies, which keeps it an expression subplan evaluated on demand.
// The outer column and the inner sets hold NULLs and some correlation
// values have empty inner sets; both paths must return the same rows.
// Quantified comparisons cannot sit under OR, so their subplan form is
// the equivalent EXISTS.
func TestSubqueryPathsAgree(t *testing.T) {
	db := Open()
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE o (id INT, g INT, x INT)")
	mustExec(t, db, "CREATE TABLE s (g INT, k INT, v INT)")
	loadRows(t, db, "o", 36, func(i int) string {
		if i%5 == 0 {
			return fmt.Sprintf("%d, %d, NULL", i, i%6)
		}
		return fmt.Sprintf("%d, %d, %d", i, i%6, i%7)
	})
	// Groups 0-4 have inner rows, group 5 none; group 2 holds a NULL, and
	// group 3 has no k = 1 row, so its scalar subquery is empty.
	loadRows(t, db, "s", 20, func(i int) string {
		g, k := i%5, i/5
		if g == 3 && k == 1 {
			k = 9
		}
		if g == 2 && k == 2 {
			return fmt.Sprintf("%d, %d, NULL", g, k)
		}
		return fmt.Sprintf("%d, %d, %d", g, k, (i*3)%7)
	})
	const anyOf = "(SELECT v FROM s WHERE s.g = o.g)"
	for _, c := range []struct{ name, pred, subplan string }{
		{"scalar", "o.x = (SELECT v FROM s WHERE s.g = o.g AND s.k = 1)", ""},
		{"uncorrelated scalar", "o.x = (SELECT v FROM s WHERE s.g = 0 AND s.k = 1)", ""},
		{"exists", "EXISTS (SELECT 1 FROM s WHERE s.g = o.g AND s.v > o.x)", ""},
		{"not exists", "NOT EXISTS (SELECT 1 FROM s WHERE s.g = o.g AND s.v > o.x)", ""},
		{"in", "o.x IN " + anyOf, ""},
		{"not in", "o.x NOT IN " + anyOf, ""},
		{"uncorrelated not in", "o.x NOT IN (SELECT v FROM s WHERE s.g = 1)", ""},
		{"> any", "o.x > ANY " + anyOf,
			"EXISTS (SELECT 1 FROM s WHERE s.g = o.g AND o.x > s.v)"},
		{">= all", "o.x >= ALL " + anyOf,
			"NOT EXISTS (SELECT 1 FROM s WHERE s.g = o.g AND (s.v > o.x OR s.v IS NULL OR o.x IS NULL))"},
	} {
		if c.subplan == "" {
			c.subplan = c.pred
		}
		asSubq := "SELECT id FROM o WHERE " + c.pred + " ORDER BY id"
		asSubplan := "SELECT id FROM o WHERE o.id < 0 OR " + c.subplan + " ORDER BY id"
		requirePlan(t, db, asSubq, "SUBQ", func(n *plan.Node) bool { return n.Op == plan.OpSubq })
		requirePlan(t, db, asSubplan, "expression subplan", hasExprSubplan)
		a, b := mustExec(t, db, asSubq), mustExec(t, db, asSubplan)
		if got, want := fmt.Sprint(intsOf(t, b, 0)), fmt.Sprint(intsOf(t, a, 0)); got != want {
			t.Errorf("%s: SUBQ returns %s, the expression subplan %s", c.name, want, got)
		}
	}
}

// TestSubqueryCacheChargedToMaxMem: the results a correlated subquery
// caches per correlation value are materialized state like a hash
// table's, so together they count against MaxMem — one of them fits the
// budget, all two hundred do not.
func TestSubqueryCacheChargedToMaxMem(t *testing.T) {
	db := Open()
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE o (k INT, c INT)")
	mustExec(t, db, "CREATE TABLE i (v INT, w INT)")
	loadRows(t, db, "o", 200, func(i int) string { return fmt.Sprintf("%d, %d", -1-i, i) })
	loadRows(t, db, "i", 400, func(i int) string { return fmt.Sprintf("%d, %d", i, i) })
	const q = "SELECT k FROM o WHERE o.k IN (SELECT v FROM i WHERE i.w >= o.c)"
	requirePlan(t, db, q, "SUBQ", func(n *plan.Node) bool { return n.Op == plan.OpSubq && len(n.CorrCols) > 0 })
	setLimits(db, Limits{MaxMem: 256 << 10})
	_, err := db.Exec(q, nil)
	var re *ResourceError
	if !errors.As(err, &re) || re.Budget != "mem" {
		t.Fatalf("200 cached results under a 256 KiB budget: want a mem ResourceError, got %v", err)
	}
	setLimits(db, Limits{})
	if res := mustExec(t, db, q); len(res.Rows) != 0 {
		t.Fatalf("without a budget: %d rows, want none", len(res.Rows))
	}
}

// TestParallelNonEquiJoin: a non-equi join plans a nested-loop join
// under the exchange, so every worker runs its own apply operator over
// its morsels; DOP 4 must answer what DOP 1 does, inner and left outer.
func TestParallelNonEquiJoin(t *testing.T) {
	db := genParallelDB(t, 5)
	for _, q := range []string{
		"SELECT x.k, x.v, y.k FROM ta x, tb y WHERE x.v > y.v + 15",
		"SELECT x.k, x.v, y.k FROM ta x LEFT JOIN tb y ON x.v > y.v + 15",
	} {
		setDOP(db, 4)
		requirePlan(t, db, q, "GATHER over NLJN", func(n *plan.Node) bool {
			return n.Op == plan.OpGather && n.DOP == 4 && plan.CollectOps(n)[plan.OpNLJoin] > 0
		})
		serial, par := runAtDOP(t, db, 1, q), runAtDOP(t, db, 4, q)
		if len(serial.Rows) == 0 {
			t.Fatalf("%s: no rows; the comparison is vacuous", q)
		}
		if canonical(serial) != canonical(par) {
			t.Fatalf("DOP=4 diverged on %s\nserial: %s\nparallel: %s", q, canonical(serial), canonical(par))
		}
	}
}

// TestNLJoinInnerKeepsEnclosingCorrelation: a nested-loop join inside a
// correlated subquery's inner has no correlation columns of its own, so
// its apply installs no vector — its inner scan, filtered on the
// subquery's correlation value, must keep reading the enclosing one and
// be materialized afresh for every value.
func TestNLJoinInnerKeepsEnclosingCorrelation(t *testing.T) {
	db := Open()
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "CREATE TABLE c (z INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2), (3), (4)")
	mustExec(t, db, "INSERT INTO b VALUES (0), (2)")
	mustExec(t, db, "INSERT INTO c VALUES (1), (3), (4)")
	const q = `SELECT x FROM a WHERE EXISTS
		(SELECT 1 FROM b, c WHERE b.y < c.z AND c.z = a.x AND b.y < a.x - 1) ORDER BY 1`
	requirePlan(t, db, q, "NLJN whose inner scan is filtered", func(n *plan.Node) bool {
		return n.Op == plan.OpNLJoin && n.Inputs[1].Op == plan.OpScan && len(n.Inputs[1].Preds) > 0
	})
	res := mustExec(t, db, q)
	if !eqInts(intsOf(t, res, 0), []int64{3, 4}) {
		t.Fatalf("correlated NLJN inner = %v, want [3 4]", intsOf(t, res, 0))
	}
	// The SUBQ and the NLJN build one operator type.
	compiled := preparedPlan(q)(t, db)
	instr := exec.NewInstrumentation()
	if _, err := db.builder.Instrumented(instr).Build(compiled.Root, nil); err != nil {
		t.Fatal(err)
	}
	walkPlan(compiled.Root, func(n *plan.Node) {
		if k := instr.Kind(n); (n.Op == plan.OpSubq || n.Op == plan.OpNLJoin) && k != "applyOp" {
			t.Errorf("%s node built %s, want applyOp", n.Op, k)
		}
	})
}
