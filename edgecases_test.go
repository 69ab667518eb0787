package starburst

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Edge-case end-to-end coverage beyond the per-experiment tests.

func TestGroupByExpressionKey(t *testing.T) {
	db := paperDB(t)
	// Group by a computed expression; select list repeats it.
	res := mustExec(t, db, `SELECT partno % 2, COUNT(*) FROM quotations
		GROUP BY partno % 2 ORDER BY 1`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][1].Int() != 4 || res.Rows[1][1].Int() != 4 {
		t.Errorf("even/odd counts = %v", res.Rows)
	}
}

// TestGroupByKeyNotSelected: projection push-down must not trim a
// GROUPBY box's grouping columns when the query selects only aggregates
// (it used to, and the GROUP operator then emitted the key as the count).
func TestGroupByKeyNotSelected(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT COUNT(*) FROM quotations GROUP BY partno % 2 ORDER BY 1`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 4 || res.Rows[1][0].Int() != 4 {
		t.Fatalf("counts = %v, want [[4] [4]]", res.Rows)
	}
	// MIN(partno) per suppno (partno % 3) is 3, 1, 2.
	res = mustExec(t, db, `SELECT partno FROM quotations WHERE partno IN
		(SELECT MIN(partno) FROM quotations GROUP BY suppno) ORDER BY 1`)
	if got := fmt.Sprint(res.Rows); got != "[[1] [2] [3]]" {
		t.Fatalf("IN over aggregate-only GROUP BY = %s, want [[1] [2] [3]]", got)
	}
}

// TestQuotedNamesKeepInvalidBytes: quoted names that differ only in
// bytes that are not UTF-8 name distinct tables, views and indexes,
// in memory and on DISK. Folding a name's case used to turn every such
// byte into U+FFFD, so the second CREATE found the first table; and
// every place that folds a name must fold it alike, or the undo of a
// rolled-back write, the DISK store's page file and the index lookup
// would each find another table or none.
func TestQuotedNamesKeepInvalidBytes(t *testing.T) {
	names := []string{"a\xff", "a\xfe", "A\xc3"}
	check := func(t *testing.T, db *DB) {
		t.Helper()
		for i, name := range []string{"a\xff", "a\xfe", "a\xc3"} {
			res := mustExec(t, db, fmt.Sprintf(`SELECT x FROM "%s" ORDER BY x`, name))
			if got, want := fmt.Sprint(res.Rows), fmt.Sprintf("[[%d]]", i); got != want {
				t.Errorf("SELECT x FROM %q = %s, want %s", name, got, want)
			}
		}
		for i, name := range names[:2] {
			res := mustExec(t, db, fmt.Sprintf(`SELECT y FROM "v%s"`, name))
			if got, want := fmt.Sprint(res.Rows), fmt.Sprintf("[[%d]]", 100+i); got != want {
				t.Errorf("SELECT y FROM %q = %s, want %s", "v"+name, got, want)
			}
		}
	}
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			dir := t.TempDir()
			open := func() *DB {
				if !disk {
					return Open()
				}
				db := Open(WithDataDir(dir), WithDefaultStorage("DISK"))
				if err := db.OpenErr(); err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			defer func() { db.Close() }()
			for i, name := range names {
				mustExec(t, db, fmt.Sprintf(`CREATE TABLE "%s" (x INT)`, name))
				mustExec(t, db, fmt.Sprintf(`INSERT INTO "%s" VALUES (%d)`, name, i))
			}
			for _, name := range names[:2] {
				mustExec(t, db, fmt.Sprintf(`CREATE UNIQUE INDEX "i%s" ON "%s" (x)`, name, name))
				mustExec(t, db, fmt.Sprintf(`CREATE VIEW "v%s" AS SELECT x + 100 AS y FROM "%s"`, name, name))
			}
			if _, err := db.Exec("CREATE INDEX \"ia\xff\" ON \"a\xff\" (x)", nil); err == nil {
				t.Error(`a second index "ia\xff" on "a\xff" was created`)
			}
			tx := mustBegin(t, db)
			for _, q := range []string{"INSERT INTO \"a\xff\" VALUES (7)", "UPDATE \"a\xff\" SET x = x + 20"} {
				if _, err := tx.Query(context.Background(), q, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			// A failing statement undoes its own writes: 5 goes in, the
			// duplicate 1 fails on the unique index.
			if _, err := db.Exec("INSERT INTO \"a\xfe\" VALUES (5), (1)", nil); err == nil {
				t.Error(`a duplicate key went into "a\xfe"`)
			}
			check(t, db)
			// The first reopen replays the WAL, the second reads the
			// catalog snapshot the first one's checkpoint wrote.
			for i := 0; disk && i < 2; i++ {
				db.Close()
				db = open()
				check(t, db)
			}
		})
	}
}

// TestQuotedNamesOwnPageFiles: on DISK every table keeps its own page
// file, in the data directory, across reopens. Lower-casing a name for
// its file used to give "K" and the Kelvin sign the one file k.tbl, so
// after a reopen both read the table written last; and a '/' in a name
// put the file outside the directory.
func TestQuotedNamesOwnPageFiles(t *testing.T) {
	names := []string{"K", "\u212A", "../up", "a/b", "a%2Fb", "Größe"}
	dir := filepath.Join(t.TempDir(), "data")
	var db *DB
	reopen := func() {
		if db != nil {
			db.Close()
		}
		db = Open(WithDataDir(dir), WithDefaultStorage("DISK"))
		if err := db.OpenErr(); err != nil {
			t.Fatal(err)
		}
	}
	reopen()
	defer func() { db.Close() }()
	for i, name := range names {
		mustExec(t, db, fmt.Sprintf(`CREATE TABLE "%s" (x INT)`, name))
		mustExec(t, db, fmt.Sprintf(`INSERT INTO "%s" VALUES (%d)`, name, i))
	}
	for round := 0; round < 3; round++ {
		for i, name := range names {
			res := mustExec(t, db, fmt.Sprintf(`SELECT x FROM "%s"`, name))
			if got, want := fmt.Sprint(res.Rows), fmt.Sprintf("[[%d]]", i); got != want {
				t.Errorf("round %d: SELECT x FROM %q = %s, want %s", round, name, got, want)
			}
		}
		reopen()
	}
	if entries, err := os.ReadDir(filepath.Dir(dir)); err != nil || len(entries) != 1 {
		t.Errorf("the data directory's parent holds %v (%v), want only the data directory", entries, err)
	}
}

func TestHavingWithSubquery(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT type, COUNT(*) FROM inventory GROUP BY type
		HAVING COUNT(*) > (SELECT COUNT(*) FROM inventory WHERE type = 'DISK')`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "CPU" {
		t.Fatalf("having subquery = %v", res.Rows)
	}
}

func TestNestedViews(t *testing.T) {
	db := paperDB(t)
	mustExec(t, db, "CREATE VIEW v1 AS SELECT partno, price FROM quotations WHERE price > 20")
	mustExec(t, db, "CREATE VIEW v2 AS SELECT partno FROM v1 WHERE price < 60")
	mustExec(t, db, "CREATE VIEW v3 AS SELECT partno FROM v2 WHERE partno > 2")
	res := mustExec(t, db, "SELECT partno FROM v3 ORDER BY 1")
	// price = 10p+0.5 → >20 ⇒ p≥2; <60 ⇒ p≤5; >2 ⇒ 3,4,5.
	if !eqInts(intsOf(t, res, 0), []int64{3, 4, 5}) {
		t.Fatalf("nested views = %v", intsOf(t, res, 0))
	}
	// All three views merge into a single box.
	ex := mustExec(t, db, "EXPLAIN SELECT partno FROM v3")
	text := resultText(ex)
	after := text[strings.Index(text, "after rewrite"):]
	if strings.Count(after, "Box") > 3 { // top select + base + header line
		t.Errorf("views did not fully merge:\n%s", after)
	}
}

func TestViewOnViewCycleRejected(t *testing.T) {
	db := paperDB(t)
	// A view can't be created referencing a missing table...
	if _, err := db.Exec("CREATE VIEW bad AS SELECT * FROM missing", nil); err == nil {
		t.Fatal("view over missing table must fail at definition time")
	}
}

func TestInsertFromSetOperation(t *testing.T) {
	db := paperDB(t)
	mustExec(t, db, "CREATE TABLE allparts (p INT)")
	res := mustExec(t, db, `INSERT INTO allparts
		SELECT partno FROM quotations UNION SELECT partno FROM inventory`)
	if res.Affected != 8 {
		t.Fatalf("affected = %d", res.Affected)
	}
}

func TestInsertTypeCoercion(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (f FLOAT, i INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2.9)") // int→float, float→int
	res := mustExec(t, db, "SELECT f, i FROM t")
	if res.Rows[0][0].Float() != 1.0 || res.Rows[0][1].Int() != 2 {
		t.Fatalf("coercion = %v", res.Rows[0])
	}
}

func TestStringFunctionsEndToEnd(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT LOWER(type), LENGTH(type), SUBSTR(type, 1, 2), type || '-x'
		FROM inventory WHERE partno = 1`)
	r := res.Rows[0]
	if r[0].Str() != "cpu" || r[1].Int() != 3 || r[2].Str() != "CP" || r[3].Str() != "CPU-x" {
		t.Fatalf("string funcs = %v", r)
	}
	res = mustExec(t, db, "SELECT COALESCE(NULL, partno, 99) FROM inventory WHERE partno = 2")
	if res.Rows[0][0].Int() != 2 {
		t.Error("coalesce")
	}
	res = mustExec(t, db, "SELECT ABS(0 - partno), SQRT(partno * partno) FROM inventory WHERE partno = 4")
	if res.Rows[0][0].Int() != 4 || res.Rows[0][1].Float() != 4 {
		t.Errorf("abs/sqrt = %v", res.Rows[0])
	}
}

func TestCaseInWhere(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT partno FROM inventory
		WHERE CASE WHEN type = 'CPU' THEN onhand_qty ELSE 0 END > 2 ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{3, 5}) {
		t.Fatalf("case in where = %v", intsOf(t, res, 0))
	}
}

func TestArithmeticEdge(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE n (a INT, b INT)")
	mustExec(t, db, "INSERT INTO n VALUES (7, 2), (7, 0)")
	// Division by zero is an execution error (DB2 style).
	if _, err := db.Exec("SELECT a / b FROM n", nil); err == nil {
		t.Fatal("division by zero must error")
	}
	res := mustExec(t, db, "SELECT a / b, a % b FROM n WHERE b <> 0")
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Int() != 1 {
		t.Errorf("int division = %v", res.Rows[0])
	}
	res = mustExec(t, db, "SELECT -a FROM n WHERE b = 0")
	if res.Rows[0][0].Int() != -7 {
		t.Error("negation")
	}
}

func TestThreeValuedWhereSemantics(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (NULL), (3)")
	// NULL <> 1 is UNKNOWN → row dropped; NOT wraps stay UNKNOWN.
	res := mustExec(t, db, "SELECT a FROM t WHERE a <> 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("3VL: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE NOT (a = 1)")
	if len(res.Rows) != 1 {
		t.Fatalf("NOT 3VL: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE a IS NULL")
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Fatal("IS NULL")
	}
	// NULLs group together.
	mustExec(t, db, "INSERT INTO t VALUES (NULL)")
	res = mustExec(t, db, "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 1")
	if len(res.Rows) != 3 { // NULL group first
		t.Fatalf("groups = %v", res.Rows)
	}
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].Int() != 2 {
		t.Fatalf("NULL group = %v", res.Rows[0])
	}
	// DISTINCT treats NULLs as identical.
	res = mustExec(t, db, "SELECT DISTINCT a FROM t")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct with NULLs = %v", res.Rows)
	}
}

func TestOuterJoinThenAggregate(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), COUNT(i.onhand_qty) FROM quotations q
		LEFT OUTER JOIN inventory i ON q.partno = i.partno`)
	// COUNT(*) counts all 8; COUNT(col) skips the 3 NULL-extended rows.
	if res.Rows[0][0].Int() != 8 || res.Rows[0][1].Int() != 5 {
		t.Fatalf("outer join aggregate = %v", res.Rows[0])
	}
}

func TestUnionInSubquery(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT partno FROM quotations WHERE partno IN
		(SELECT partno FROM inventory WHERE type = 'CPU'
		 UNION SELECT partno FROM inventory WHERE type = 'DISK') ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("union subquery = %v", intsOf(t, res, 0))
	}
}

func TestDerivedTableWithAggregateJoined(t *testing.T) {
	// Hydrogen's orthogonality: an aggregating derived table joined to
	// a base table (SQL-1989 forbade the equivalent through views).
	db := paperDB(t)
	res := mustExec(t, db, `SELECT q.partno, q.order_qty, t.avg_qty
		FROM quotations q, (SELECT AVG(order_qty) avg_qty FROM quotations) t
		WHERE q.order_qty > t.avg_qty ORDER BY 1`)
	// avg order_qty = 5*(1..8)/8 = 22.5 → parts 5..8.
	if !eqInts(intsOf(t, res, 0), []int64{5, 6, 7, 8}) {
		t.Fatalf("agg derived join = %v", intsOf(t, res, 0))
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT a.partno, b.partno FROM inventory a, inventory b
		WHERE a.partno + 1 = b.partno AND a.type = b.type ORDER BY 1`)
	// Same type pairs with consecutive partno: (1,3,5 CPU), (2,4 DISK):
	// consecutive pairs none (1→2 differ). So empty.
	if len(res.Rows) != 0 {
		t.Fatalf("self join = %v", res.Rows)
	}
}

func TestExplainDML(t *testing.T) {
	db := paperDB(t)
	ex := mustExec(t, db, "EXPLAIN UPDATE inventory SET onhand_qty = 0 WHERE type = 'CPU'")
	text := resultText(ex)
	if !strings.Contains(text, "UPDATE") {
		t.Errorf("explain update:\n%s", text)
	}
	ex = mustExec(t, db, "EXPLAIN INSERT INTO inventory VALUES (9, 9, 'X')")
	if !strings.Contains(resultText(ex), "INSERT") {
		t.Error("explain insert")
	}
	// EXPLAIN does not execute.
	res := mustExec(t, db, "SELECT COUNT(*) FROM inventory WHERE partno = 9")
	if res.Rows[0][0].Int() != 0 {
		t.Error("EXPLAIN must not execute the statement")
	}
}

func TestLimitZeroAndParams(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, "SELECT partno FROM quotations LIMIT 0")
	if len(res.Rows) != 0 {
		t.Error("limit 0")
	}
	stmt, err := db.Prepare("SELECT partno FROM quotations ORDER BY partno LIMIT :n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := stmt.Query(context.Background(), map[string]Value{"n": NewInt(2)})
	if err != nil || len(r.Rows) != 2 {
		t.Fatalf("param limit: %v %v", r, err)
	}
	if _, err := stmt.Query(context.Background(), nil); err == nil {
		t.Error("unbound limit param must error")
	}
}

func TestUpdateSwapColumns(t *testing.T) {
	// All SET expressions see the OLD row (simultaneous assignment).
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2)")
	mustExec(t, db, "UPDATE t SET a = b, b = a")
	res := mustExec(t, db, "SELECT a, b FROM t")
	if res.Rows[0][0].Int() != 2 || res.Rows[0][1].Int() != 1 {
		t.Fatalf("swap = %v", res.Rows[0])
	}
}

func TestDeleteAllAndReuse(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	res := mustExec(t, db, "DELETE FROM t")
	if res.Affected != 3 {
		t.Fatal("delete all")
	}
	mustExec(t, db, "INSERT INTO t VALUES (9)")
	r := mustExec(t, db, "SELECT COUNT(*) FROM t")
	if r.Rows[0][0].Int() != 1 {
		t.Fatal("reuse after delete")
	}
}

func TestCTEShadowsTable(t *testing.T) {
	// A table expression shadows a stored table of the same name.
	db := paperDB(t)
	res := mustExec(t, db, `WITH inventory AS (SELECT 99 AS partno)
		SELECT partno FROM inventory`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 99 {
		t.Fatalf("cte shadowing = %v", res.Rows)
	}
}

func TestMultipleSubqueriesOneBox(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT partno FROM quotations
		WHERE partno IN (SELECT partno FROM inventory WHERE type = 'CPU')
		AND order_qty > (SELECT MIN(onhand_qty) FROM inventory)
		AND EXISTS (SELECT 1 FROM inventory) ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 3, 5}) {
		t.Fatalf("multiple subqueries = %v", intsOf(t, res, 0))
	}
}

func TestWideRowAndManyColumns(t *testing.T) {
	db := Open()
	cols := make([]string, 40)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d INT", i)
	}
	mustExec(t, db, "CREATE TABLE wide ("+strings.Join(cols, ", ")+")")
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", i)
	}
	mustExec(t, db, "INSERT INTO wide VALUES ("+strings.Join(vals, ", ")+")")
	res := mustExec(t, db, "SELECT c39, c0 FROM wide WHERE c20 = 20")
	if res.Rows[0][0].Int() != 39 || res.Rows[0][1].Int() != 0 {
		t.Fatal("wide row")
	}
}

func TestUserDefinedTypeColumnEndToEnd(t *testing.T) {
	// Externally defined column types flow through DDL, storage,
	// comparison and ORDER BY.
	db := Open()
	_, err := db.RegisterType(TypeDef{
		Name:    "MONEY",
		Compare: func(a, b any) int { return int(a.(int64) - b.(int64)) },
		Format:  func(a any) string { return fmt.Sprintf("$%d", a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE prices (id INT, amount MONEY)")
	cents := []int64{500, 100, 300}
	bulkLoad(t, db, "prices", len(cents), func(i int) Row {
		return Row{NewInt(int64(i)), newMoney(t, db, cents[i])}
	})
	res := mustExec(t, db, "SELECT id FROM prices ORDER BY amount")
	if !eqInts(intsOf(t, res, 0), []int64{1, 2, 0}) {
		t.Fatalf("money order = %v", intsOf(t, res, 0))
	}
	res = mustExec(t, db, "SELECT amount FROM prices WHERE id = 0")
	if res.Rows[0][0].String() != "$500" {
		t.Fatalf("money format = %v", res.Rows[0][0])
	}
}

func newMoney(t *testing.T, db *DB, cents int64) Value {
	t.Helper()
	id, ok := TypeByName("MONEY")
	if !ok {
		t.Fatal("MONEY not registered")
	}
	return NewUser(id, cents)
}

// TestLateralTableExpression: Hydrogen table expressions "may be
// correlated with other parts of the query" (section 2) — a derived
// table in FROM referencing a sibling is applied per outer tuple.
func TestLateralTableExpression(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT q.partno, top_inv.onhand_qty
		FROM quotations q,
		     (SELECT onhand_qty FROM inventory i WHERE i.partno = q.partno) top_inv
		ORDER BY 1`)
	// One row per quotation with matching inventory (parts 1..5).
	if !eqInts(intsOf(t, res, 0), []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("lateral = %v", intsOf(t, res, 0))
	}
	for _, r := range res.Rows {
		if r[1].Int() != r[0].Int() {
			t.Fatalf("lateral row mismatch: %v", r)
		}
	}
	// Lateral with an aggregate inside.
	res = mustExec(t, db, `SELECT q.partno, s.total
		FROM quotations q,
		     (SELECT SUM(onhand_qty) total FROM inventory i WHERE i.partno <= q.partno) s
		WHERE q.partno <= 3 ORDER BY 1`)
	want := []int64{1, 3, 6} // prefix sums of 1,2,3
	for i, r := range res.Rows {
		if r[1].Int() != want[i] {
			t.Fatalf("lateral aggregate row %d = %v, want %d", i, r, want[i])
		}
	}
}

// TestBudget1PartialRewriteExecutes: Rule 1 without the merge (a
// correlated setformer) must still produce a runnable, correct plan.
func TestBudget1PartialRewriteExecutes(t *testing.T) {
	db := paperDB(t)
	mustExec(t, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
	setRewriteBudget(db, 1)
	res := mustExec(t, db, `SELECT partno FROM quotations Q1
		WHERE Q1.partno IN
		  (SELECT partno FROM inventory Q3
		   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`)
	if !eqInts(sortedInts(intsOf(t, res, 0)), []int64{1, 3, 5}) {
		t.Fatalf("partial rewrite result = %v", intsOf(t, res, 0))
	}
}

func TestExplainRecursive(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE e (s INT, d INT)")
	mustExec(t, db, "INSERT INTO e VALUES (1, 2)")
	ex := mustExec(t, db, `EXPLAIN WITH RECURSIVE r (s, d) AS (
		SELECT s, d FROM e UNION SELECT r.s, e.d FROM r, e WHERE r.d = e.s)
		SELECT COUNT(*) FROM r`)
	text := resultText(ex)
	for _, want := range []string{"RECUNION", "RECREF", "recursive"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain recursive missing %q", want)
		}
	}
}

func TestSetOpTypeUnification(t *testing.T) {
	db := Open()
	res := mustExec(t, db, "SELECT 1 UNION SELECT 2.5 ORDER BY 1")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][0].Float() != 2.5 {
		t.Fatalf("float preserved: %v", res.Rows[1][0])
	}
	// NULL-typed first branch adopts the second branch's type.
	res = mustExec(t, db, "SELECT NULL UNION SELECT 7")
	if len(res.Rows) != 2 {
		t.Fatalf("null union = %v", res.Rows)
	}
}

func TestPrepareRejectsDDL(t *testing.T) {
	db := Open()
	if _, err := db.Prepare("CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("Prepare of DDL must fail")
	}
}

func TestQuantifiedCmpInWrongPosition(t *testing.T) {
	db := paperDB(t)
	// op ALL under OR is not a top-level conjunct: clear error, not a
	// wrong answer.
	if _, err := db.Exec(`SELECT partno FROM quotations
		WHERE partno = 1 OR price > ALL (SELECT price FROM quotations)`, nil); err == nil {
		t.Fatal("quantified comparison under OR must be rejected")
	}
}

func TestScalarSubqueryEmptyIsNull(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT partno,
		(SELECT onhand_qty FROM inventory i WHERE i.partno = q.partno) o
		FROM quotations q WHERE partno = 8`)
	if !res.Rows[0][1].IsNull() {
		t.Fatalf("empty scalar subquery must be NULL: %v", res.Rows[0])
	}
}

// TestUTF8Identifiers: identifiers may hold any letter, and fold to
// upper case as a whole: "xà" names the column XÀ, not X\xc3.
func TestUTF8Identifiers(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (café INT)")
	mustExec(t, db, "INSERT INTO t VALUES (7)")
	if res := mustExec(t, db, "SELECT CAFÉ FROM t"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("SELECT CAFÉ = %v", res.Rows)
	}
	mustExec(t, db, "CREATE TABLE u (xà INT)")
	if res := mustExec(t, db, "SELECT * FROM u"); len(res.Columns) != 1 || res.Columns[0] != "XÀ" {
		t.Fatalf("columns = %q, want [XÀ]", res.Columns)
	}
}

// TestScalarAggregateEstimatesOneRow: an aggregate without GROUP BY
// yields exactly one row, whatever its input, and EXPLAIN estimates
// exactly that.
func TestScalarAggregateEstimatesOneRow(t *testing.T) {
	db := paperDB(t)
	text := planText(t, db, "SELECT COUNT(*) FROM quotations")
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "GROUP") {
			if !strings.Contains(line, "{rows=1 ") {
				t.Fatalf("scalar aggregate not estimated at one row:\n%s", text)
			}
			return
		}
	}
	t.Fatalf("no GROUP in the plan:\n%s", text)
}
