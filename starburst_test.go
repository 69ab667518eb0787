package starburst

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/verify"
)

// paperDB builds the quotations/inventory database of the paper's
// running example.
func paperDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE quotations (
		partno INT NOT NULL, price FLOAT, order_qty INT, suppno INT)`)
	mustExec(t, db, `CREATE TABLE inventory (
		partno INT NOT NULL, onhand_qty INT, type STRING)`)
	// Quotations: parts 1..8, various order quantities.
	for i := 1; i <= 8; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO quotations VALUES (%d, %d.5, %d, %d)", i, i*10, i*5, i%3))
	}
	// Inventory: parts 1..5; CPU for odd parts, DISK for even; low
	// stock for parts 1..3.
	for i := 1; i <= 5; i++ {
		typ := "'CPU'"
		if i%2 == 0 {
			typ = "'DISK'"
		}
		onhand := i
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO inventory VALUES (%d, %d, %s)", i, onhand, typ))
	}
	mustExec(t, db, "ANALYZE quotations")
	mustExec(t, db, "ANALYZE inventory")
	return db
}

func mustExec(t testing.TB, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Exec(q, nil)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

// bulkLoad loads n rows into a table through one explicit
// transaction, bypassing the SQL front end; the GC after the commit
// freezes them.
func bulkLoad(t testing.TB, db *DB, table string, n int, row func(i int) Row) {
	t.Helper()
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := tx.cat.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	for i := 0; i < n; i++ {
		if _, err := tx.cat.InsertTx(tbl, row(i), tx.ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func intsOf(t testing.TB, res *Result, col int) []int64 {
	t.Helper()
	var out []int64
	for _, r := range res.Rows {
		if r[col].IsNull() {
			out = append(out, -999)
			continue
		}
		out = append(out, r[col].Int())
	}
	return out
}

func sortedInts(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eqInts(a, b []int64) bool {
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

// TestPaperQueryEndToEnd runs the section 4 query through the full
// pipeline. Expected: quotations for CPU parts in inventory whose
// on-hand quantity is below the order quantity. CPUs are parts 1,3,5;
// onhand (1,3,5) < order_qty (5,15,25) always, so parts 1,3,5 qualify.
func TestPaperQueryEndToEnd(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT partno, price, order_qty FROM quotations Q1
		WHERE Q1.partno IN
		  (SELECT partno FROM inventory Q3
		   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`)
	if !eqInts(sortedInts(intsOf(t, res, 0)), []int64{1, 3, 5}) {
		t.Fatalf("partnos = %v", intsOf(t, res, 0))
	}
	if len(res.Columns) != 3 || res.Columns[1] != "PRICE" {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestPaperQuerySameResultWithRewriteVariants checks the
// nonprocedurality goal: the same query gives identical results with
// rewrite on, off, and with a unique index enabling Rule 1.
func TestPaperQuerySameResultWithRewriteVariants(t *testing.T) {
	q := `SELECT partno, price, order_qty FROM quotations Q1
		WHERE Q1.partno IN
		  (SELECT partno FROM inventory Q3
		   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`
	get := func(prep func(db *DB)) []int64 {
		db := paperDB(t)
		prep(db)
		return sortedInts(intsOf(t, mustExec(t, db, q), 0))
	}
	base := get(func(db *DB) {})
	noRewrite := get(func(db *DB) { setSkipRewrite(db, true) })
	withIndex := get(func(db *DB) {
		mustExec(t, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
	})
	if !eqInts(base, noRewrite) || !eqInts(base, withIndex) {
		t.Fatalf("results differ: base=%v noRewrite=%v withIndex=%v", base, noRewrite, withIndex)
	}
}

func TestBasicSelect(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, "SELECT partno FROM inventory WHERE type = 'CPU' ORDER BY partno")
	if !eqInts(intsOf(t, res, 0), []int64{1, 3, 5}) {
		t.Fatalf("cpus = %v", intsOf(t, res, 0))
	}
	res = mustExec(t, db, "SELECT partno + 100 AS p FROM inventory WHERE partno = 2")
	if res.Rows[0][0].Int() != 102 || res.Columns[0] != "P" {
		t.Error("expression select")
	}
	res = mustExec(t, db, "SELECT * FROM inventory WHERE onhand_qty BETWEEN 2 AND 4 ORDER BY 1")
	if !eqInts(intsOf(t, res, 0), []int64{2, 3, 4}) {
		t.Error("between")
	}
	res = mustExec(t, db, "SELECT partno FROM inventory WHERE type LIKE 'C%'")
	if len(res.Rows) != 3 {
		t.Error("like")
	}
	res = mustExec(t, db, "SELECT 1 + 2 AS three")
	if res.Rows[0][0].Int() != 3 {
		t.Error("select without FROM")
	}
}

func TestJoins(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT q.partno, i.onhand_qty
		FROM quotations q, inventory i WHERE q.partno = i.partno ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("join partnos = %v", intsOf(t, res, 0))
	}
	// Explicit JOIN syntax gives the same answer.
	res2 := mustExec(t, db, `SELECT q.partno, i.onhand_qty
		FROM quotations q JOIN inventory i ON q.partno = i.partno ORDER BY 1`)
	if len(res2.Rows) != len(res.Rows) {
		t.Error("explicit join differs")
	}
	// Three-way join with a cross-table predicate chain.
	res = mustExec(t, db, `SELECT a.partno FROM quotations a, inventory b, inventory c
		WHERE a.partno = b.partno AND b.partno = c.partno AND c.type = 'CPU' ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 3, 5}) {
		t.Fatalf("3-way = %v", intsOf(t, res, 0))
	}
}

func TestLeftOuterJoin(t *testing.T) {
	db := paperDB(t)
	// Parts 6..8 have no inventory row: preserved with NULLs.
	res := mustExec(t, db, `SELECT q.partno, i.onhand_qty
		FROM quotations q LEFT OUTER JOIN inventory i ON q.partno = i.partno
		ORDER BY 1`)
	if len(res.Rows) != 8 {
		t.Fatalf("outer join rows = %d, want 8", len(res.Rows))
	}
	for _, r := range res.Rows {
		p := r[0].Int()
		if p > 5 && !r[1].IsNull() {
			t.Errorf("part %d should be null-extended", p)
		}
		if p <= 5 && r[1].IsNull() {
			t.Errorf("part %d should have matched", p)
		}
	}
	// WHERE on the preserved side composes with the join.
	res = mustExec(t, db, `SELECT q.partno, i.onhand_qty
		FROM quotations q LEFT OUTER JOIN inventory i ON q.partno = i.partno
		WHERE q.order_qty > 25 ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{6, 7, 8}) {
		t.Fatalf("filtered outer join = %v", intsOf(t, res, 0))
	}
	// RIGHT OUTER JOIN mirrors.
	res = mustExec(t, db, `SELECT q.partno FROM inventory i RIGHT OUTER JOIN quotations q
		ON q.partno = i.partno ORDER BY 1`)
	if len(res.Rows) != 8 {
		t.Error("right outer join")
	}
}

func TestAggregation(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT type, COUNT(*) n, SUM(onhand_qty) total, MIN(partno) lo, MAX(partno) hi
		FROM inventory GROUP BY type ORDER BY type`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	cpu := res.Rows[0] // 'CPU' < 'DISK'
	if cpu[1].Int() != 3 || cpu[2].Int() != 9 || cpu[3].Int() != 1 || cpu[4].Int() != 5 {
		t.Errorf("CPU group = %v", cpu)
	}
	// HAVING.
	res = mustExec(t, db, `SELECT type FROM inventory GROUP BY type HAVING COUNT(*) > 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "CPU" {
		t.Errorf("having = %v", res.Rows)
	}
	// Scalar aggregate over empty input.
	res = mustExec(t, db, "SELECT COUNT(*), SUM(partno) FROM inventory WHERE partno > 1000")
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", res.Rows[0])
	}
	// AVG and arithmetic over aggregates.
	res = mustExec(t, db, "SELECT AVG(onhand_qty) * 2 FROM inventory")
	if res.Rows[0][0].Float() != 6 {
		t.Errorf("avg*2 = %v", res.Rows[0][0])
	}
	// COUNT(DISTINCT ...).
	mustExec(t, db, "INSERT INTO inventory VALUES (99, 1, 'CPU')")
	res = mustExec(t, db, "SELECT COUNT(DISTINCT type) FROM inventory")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
}

func TestDistinctAndSetOps(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, "SELECT DISTINCT type FROM inventory ORDER BY type")
	if len(res.Rows) != 2 {
		t.Fatalf("distinct = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT partno FROM quotations
		UNION SELECT partno FROM inventory ORDER BY 1`)
	if len(res.Rows) != 8 {
		t.Errorf("union = %d rows", len(res.Rows))
	}
	res = mustExec(t, db, `SELECT partno FROM quotations
		UNION ALL SELECT partno FROM inventory`)
	if len(res.Rows) != 13 {
		t.Errorf("union all = %d rows", len(res.Rows))
	}
	res = mustExec(t, db, `SELECT partno FROM quotations
		INTERSECT SELECT partno FROM inventory ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 2, 3, 4, 5}) {
		t.Errorf("intersect = %v", intsOf(t, res, 0))
	}
	res = mustExec(t, db, `SELECT partno FROM quotations
		EXCEPT SELECT partno FROM inventory ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{6, 7, 8}) {
		t.Errorf("except = %v", intsOf(t, res, 0))
	}
}

func TestSubqueryFlavors(t *testing.T) {
	db := paperDB(t)
	// EXISTS (correlated).
	res := mustExec(t, db, `SELECT partno FROM quotations q WHERE EXISTS
		(SELECT 1 FROM inventory i WHERE i.partno = q.partno AND i.type = 'CPU') ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 3, 5}) {
		t.Fatalf("exists = %v", intsOf(t, res, 0))
	}
	// NOT EXISTS.
	res = mustExec(t, db, `SELECT partno FROM quotations q WHERE NOT EXISTS
		(SELECT 1 FROM inventory i WHERE i.partno = q.partno) ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{6, 7, 8}) {
		t.Fatalf("not exists = %v", intsOf(t, res, 0))
	}
	// NOT IN.
	res = mustExec(t, db, `SELECT partno FROM quotations
		WHERE partno NOT IN (SELECT partno FROM inventory) ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{6, 7, 8}) {
		t.Fatalf("not in = %v", intsOf(t, res, 0))
	}
	// Scalar subquery comparison.
	res = mustExec(t, db, `SELECT partno FROM inventory
		WHERE onhand_qty = (SELECT MAX(onhand_qty) FROM inventory)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("scalar = %v", res.Rows)
	}
	// op ALL.
	res = mustExec(t, db, `SELECT partno FROM quotations
		WHERE order_qty > ALL (SELECT onhand_qty FROM inventory) ORDER BY 1`)
	// onhand max = 5; order_qty = 5*partno > 5 ⇒ partno >= 2.
	if !eqInts(intsOf(t, res, 0), []int64{2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("all = %v", intsOf(t, res, 0))
	}
	// op ANY.
	res = mustExec(t, db, `SELECT partno FROM inventory
		WHERE partno = ANY (SELECT suppno FROM quotations) ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 2}) {
		t.Fatalf("any = %v", intsOf(t, res, 0))
	}
	// Scalar subquery in the select list.
	res = mustExec(t, db, `SELECT partno, (SELECT MAX(onhand_qty) FROM inventory) m
		FROM quotations WHERE partno = 1`)
	if res.Rows[0][1].Int() != 5 {
		t.Fatalf("select-list scalar = %v", res.Rows[0])
	}
}

// TestNotInWithNulls checks Kleene semantics: x NOT IN (set containing
// NULL) is never TRUE.
func TestNotInWithNulls(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (1), (NULL)")
	res := mustExec(t, db, "SELECT x FROM a WHERE x NOT IN (SELECT y FROM b)")
	if len(res.Rows) != 0 {
		t.Fatalf("NOT IN with NULL must be empty, got %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT x FROM a WHERE x IN (SELECT y FROM b)")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("IN with NULL = %v", res.Rows)
	}
}

// TestORSubquery is the paper's section-7 query: an OR of a simple
// predicate and a scalar-subquery predicate, executed via the OR
// operator machinery (deferred subplans).
func TestORSubquery(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE T1 (A1 INT, A2 INT)")
	mustExec(t, db, "CREATE TABLE T2 (B1 INT, B2 INT)")
	mustExec(t, db, "INSERT INTO T1 VALUES (5, 0), (6, 42), (7, 7)")
	mustExec(t, db, "INSERT INTO T2 VALUES (16, 42)")
	res := mustExec(t, db, `SELECT * FROM T1 WHERE T1.A1 = 5 OR T1.A2 =
		(SELECT B2 FROM T2 WHERE T2.B1 = 16) ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{5, 6}) {
		t.Fatalf("or-subquery = %v", intsOf(t, res, 0))
	}
	// Empty subquery: only the first disjunct can qualify.
	mustExec(t, db, "DELETE FROM T2")
	res = mustExec(t, db, `SELECT * FROM T1 WHERE T1.A1 = 5 OR T1.A2 =
		(SELECT B2 FROM T2 WHERE T2.B1 = 16)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("or with empty subquery = %v", res.Rows)
	}
	// EXISTS under OR.
	mustExec(t, db, "INSERT INTO T2 VALUES (1, 1)")
	res = mustExec(t, db, `SELECT A1 FROM T1 WHERE A1 = 7 OR EXISTS
		(SELECT 1 FROM T2 WHERE T2.B1 = T1.A2) ORDER BY 1`)
	// A2 values: 0,42,7 → only A2=... B1=1 exists: no (B1 is 1; A2=0,42,7: none equal 1)
	if !eqInts(intsOf(t, res, 0), []int64{7}) {
		t.Fatalf("exists under or = %v", intsOf(t, res, 0))
	}
}

func TestViews(t *testing.T) {
	db := paperDB(t)
	mustExec(t, db, `CREATE VIEW cpus AS SELECT partno, onhand_qty FROM inventory WHERE type = 'CPU'`)
	// Views usable like tables, including joined with aggregation — the
	// SQL restriction Hydrogen lifts.
	res := mustExec(t, db, `SELECT COUNT(*) FROM cpus`)
	if res.Rows[0][0].Int() != 3 {
		t.Fatal("view count")
	}
	mustExec(t, db, `CREATE VIEW cpu_total (s) AS SELECT SUM(onhand_qty) FROM cpus`)
	res = mustExec(t, db, `SELECT q.partno FROM quotations q, cpu_total v WHERE q.order_qty > v.s ORDER BY 1`)
	// cpu total = 9; order_qty = 5p > 9 ⇒ p >= 2.
	if !eqInts(intsOf(t, res, 0), []int64{2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("aggregated view join = %v", intsOf(t, res, 0))
	}
	// Update through a view (unambiguous).
	mustExec(t, db, "UPDATE cpus SET onhand_qty = 100 WHERE partno = 1")
	res = mustExec(t, db, "SELECT onhand_qty FROM inventory WHERE partno = 1")
	if res.Rows[0][0].Int() != 100 {
		t.Fatal("update through view")
	}
	// Ambiguous view update errors.
	if _, err := db.Exec("UPDATE cpu_total SET s = 0", nil); err == nil {
		t.Fatal("ambiguous view update must fail")
	}
	// Delete through a view respects the view predicate.
	mustExec(t, db, "DELETE FROM cpus WHERE partno = 3")
	res = mustExec(t, db, "SELECT COUNT(*) FROM inventory")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("delete through view: %v", res.Rows[0][0])
	}
}

// TestCreateViewRefusesUnusableDefinitions: a definition no query over
// the view could use is refused at CREATE VIEW, and nothing is stored.
func TestCreateViewRefusesUnusableDefinitions(t *testing.T) {
	db := paperDB(t)
	for q, want := range map[string]string{
		`CREATE VIEW m (x) AS SELECT partno, type FROM inventory`:           "1 column names for 2 columns",
		`CREATE VIEW m (x, y, z) AS SELECT partno, type FROM inventory`:     "3 column names for 2 columns",
		`CREATE VIEW m AS SELECT partno FROM inventory ORDER BY partno`:     "ORDER BY/LIMIT",
		`CREATE VIEW m AS SELECT partno FROM inventory LIMIT 2`:             "ORDER BY/LIMIT",
		`CREATE VIEW m AS SELECT nope FROM inventory`:                       "NOPE",
		`CREATE VIEW m (x) AS SELECT type FROM inventory ORDER BY partno`:   "ORDER BY/LIMIT",
		`CREATE VIEW m AS SELECT p FROM (SELECT partno p FROM inventory) d`: "",
	} {
		_, err := db.Exec(q, nil)
		if want == "" {
			if err != nil {
				t.Errorf("%s: %v", q, err)
			}
			mustExec(t, db, `SELECT COUNT(*) FROM m`)
			mustExec(t, db, `DROP VIEW m`)
			continue
		}
		if err == nil || !strings.Contains(strings.ToUpper(err.Error()), strings.ToUpper(want)) {
			t.Errorf("%s: error %v, want one naming %q", q, err, want)
		}
		if _, ok := db.Catalog().View("m"); ok {
			t.Errorf("%s: refused view was stored", q)
		}
	}
}

// TestDMLResultsHaveNoColumns: INSERT, UPDATE and DELETE report rows
// affected and no result columns.
func TestDMLResultsHaveNoColumns(t *testing.T) {
	db := paperDB(t)
	for _, q := range []string{
		`INSERT INTO inventory VALUES (9, 1, 'NIC')`,
		`INSERT INTO inventory SELECT partno + 100, onhand_qty, type FROM inventory`,
		`UPDATE inventory SET onhand_qty = onhand_qty + 1, type = 'X' WHERE partno = 9`,
		`DELETE FROM inventory WHERE partno > 100`,
	} {
		res := mustExec(t, db, q)
		if len(res.Columns) != 0 || len(res.Rows) != 0 || res.Affected == 0 {
			t.Errorf("%s: columns %q, %d rows, %d affected", q, res.Columns, len(res.Rows), res.Affected)
		}
	}
}

func TestTableExpressions(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `WITH low (pno) AS
		(SELECT partno FROM inventory WHERE onhand_qty < 3)
		SELECT q.partno FROM quotations q, low WHERE q.partno = low.pno ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 2}) {
		t.Fatalf("cte = %v", intsOf(t, res, 0))
	}
	// Shared table expression referenced twice.
	res = mustExec(t, db, `WITH c AS (SELECT partno FROM inventory WHERE type = 'CPU')
		SELECT a.partno FROM c a, c b WHERE a.partno = b.partno ORDER BY 1`)
	if !eqInts(intsOf(t, res, 0), []int64{1, 3, 5}) {
		t.Fatalf("shared cte = %v", intsOf(t, res, 0))
	}
	// Host-language variable inside a table expression.
	res2, err := db.Exec(`WITH big AS (SELECT partno FROM quotations WHERE order_qty > :minq)
		SELECT COUNT(*) FROM big`, map[string]Value{"minq": NewInt(20)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].Int() != 4 { // order_qty 25,30,35,40
		t.Fatalf("param cte = %v", res2.Rows[0][0])
	}
}

func TestRecursion(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE edges (src INT, dst INT)")
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {5, 6}} {
		mustExec(t, db, fmt.Sprintf("INSERT INTO edges VALUES (%d, %d)", e[0], e[1]))
	}
	res := mustExec(t, db, `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT src, dst FROM reach WHERE src = 1 ORDER BY dst`)
	if !eqInts(intsOf(t, res, 1), []int64{2, 3, 4}) {
		t.Fatalf("transitive closure from 1 = %v", intsOf(t, res, 1))
	}
	// Cycles terminate thanks to duplicate elimination.
	mustExec(t, db, "INSERT INTO edges VALUES (4, 1)")
	res = mustExec(t, db, `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT COUNT(*) FROM reach WHERE src = 1`)
	if res.Rows[0][0].Int() != 4 { // 1→{1,2,3,4}
		t.Fatalf("cyclic closure = %v", res.Rows[0][0])
	}
	// Recursion with aggregation on top (logic programming + relational
	// ops, section 2).
	res = mustExec(t, db, `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT src, COUNT(*) n FROM reach GROUP BY src ORDER BY src LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatal("recursive aggregate")
	}
}

func TestDML(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT NOT NULL, b STRING)")
	res := mustExec(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	if res.Affected != 3 {
		t.Fatalf("insert affected = %d", res.Affected)
	}
	// INSERT ... SELECT.
	res = mustExec(t, db, "INSERT INTO t SELECT a + 10, b FROM t WHERE a < 3")
	if res.Affected != 2 {
		t.Fatalf("insert-select affected = %d", res.Affected)
	}
	// Column subset with NULL default.
	mustExec(t, db, "INSERT INTO t (a) VALUES (99)")
	r := mustExec(t, db, "SELECT b FROM t WHERE a = 99")
	if !r.Rows[0][0].IsNull() {
		t.Error("default NULL")
	}
	// UPDATE with expression over old values (Halloween-safe).
	res = mustExec(t, db, "UPDATE t SET a = a + 100 WHERE a <= 3")
	if res.Affected != 3 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	r = mustExec(t, db, "SELECT COUNT(*) FROM t WHERE a > 100 AND a < 200")
	if r.Rows[0][0].Int() != 3 {
		t.Error("update result")
	}
	// DELETE.
	res = mustExec(t, db, "DELETE FROM t WHERE a > 100")
	if res.Affected != 3 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	// NOT NULL enforcement through INSERT.
	if _, err := db.Exec("INSERT INTO t VALUES (NULL, 'x')", nil); err == nil {
		t.Error("NOT NULL must be enforced")
	}
}

func TestIndexUseAndCorrectness(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE big (k INT, v INT)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i%7))
	}
	mustExec(t, db, "ANALYZE big")
	noIdx := mustExec(t, db, "SELECT v FROM big WHERE k = 123")
	mustExec(t, db, "CREATE UNIQUE INDEX big_k ON big (k)")
	mustExec(t, db, "ANALYZE big")
	// Plan uses the index.
	ex := mustExec(t, db, "EXPLAIN SELECT v FROM big WHERE k = 123")
	planText := resultText(ex)
	if !strings.Contains(planText, "ISCAN") {
		t.Fatalf("expected ISCAN in plan:\n%s", planText)
	}
	withIdx := mustExec(t, db, "SELECT v FROM big WHERE k = 123")
	if len(withIdx.Rows) != 1 || withIdx.Rows[0][0].Int() != noIdx.Rows[0][0].Int() {
		t.Fatal("index scan result differs")
	}
	// Range scan through the index.
	res := mustExec(t, db, "SELECT k FROM big WHERE k >= 10 AND k < 13 ORDER BY k")
	if !eqInts(intsOf(t, res, 0), []int64{10, 11, 12}) {
		t.Fatalf("range = %v", intsOf(t, res, 0))
	}
	// Index respected after updates.
	mustExec(t, db, "UPDATE big SET k = 9999 WHERE k = 123")
	res = mustExec(t, db, "SELECT k FROM big WHERE k = 9999")
	if len(res.Rows) != 1 {
		t.Fatal("index after update")
	}
}

func TestExplainShowsPhases(t *testing.T) {
	db := paperDB(t)
	ex := mustExec(t, db, `EXPLAIN SELECT partno FROM quotations Q1
		WHERE Q1.partno IN (SELECT partno FROM inventory)`)
	text := resultText(ex)
	for _, want := range []string{
		"=== QGM (after parsing & semantic analysis) ===",
		"=== Query rewrite ===",
		"=== QGM (after rewrite) ===",
		"=== Query evaluation plan ===",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q", want)
		}
	}
}

func resultText(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].Str())
		b.WriteString("\n")
	}
	return b.String()
}

func TestPreparedStatements(t *testing.T) {
	db := paperDB(t)
	stmt, err := db.Prepare("SELECT partno FROM quotations WHERE order_qty > :q ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(context.Background(), map[string]Value{"q": NewInt(30)})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, res, 0), []int64{7, 8}) {
		t.Fatalf("prepared run 1 = %v", intsOf(t, res, 0))
	}
	res, err = stmt.Query(context.Background(), map[string]Value{"q": NewInt(35)})
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, res, 0), []int64{8}) {
		t.Fatalf("prepared run 2 = %v", intsOf(t, res, 0))
	}
	if stmt.Plan() == "" {
		t.Error("plan text")
	}
}

func TestKim82Equivalence(t *testing.T) {
	// E23: both phrasings of "employees who make more than their
	// manager" return identical results.
	db := Open()
	mustExec(t, db, "CREATE TABLE emp (id INT, name STRING, sal INT, mgr INT)")
	rows := []string{
		"(1, 'alice', 100, 0)", "(2, 'bob', 120, 1)", "(3, 'carol', 90, 1)",
		"(4, 'dave', 95, 2)", "(5, 'eve', 130, 2)",
	}
	for _, r := range rows {
		mustExec(t, db, "INSERT INTO emp VALUES "+r)
	}
	sub := mustExec(t, db, `SELECT e.name FROM emp e WHERE e.sal >
		(SELECT m.sal FROM emp m WHERE m.id = e.mgr) ORDER BY 1`)
	join := mustExec(t, db, `SELECT e.name FROM emp e, emp m
		WHERE m.id = e.mgr AND e.sal > m.sal ORDER BY 1`)
	if len(sub.Rows) != len(join.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(sub.Rows), len(join.Rows))
	}
	for i := range sub.Rows {
		if sub.Rows[i][0].Str() != join.Rows[i][0].Str() {
			t.Fatalf("row %d differs: %v vs %v", i, sub.Rows[i], join.Rows[i])
		}
	}
	if len(sub.Rows) != 2 { // bob (120>100), eve (130>120)
		t.Fatalf("expected 2 rows, got %v", sub.Rows)
	}
}

func TestMajorityExtensionEndToEnd(t *testing.T) {
	// E18: register the paper's MAJORITY set predicate and use it in a
	// query.
	db := paperDB(t)
	if err := db.RegisterSetPredicate(&SetPredicateFunc{
		Name: "MAJORITY",
		NewState: func() SetPredState {
			return &majorityState{}
		},
	}); err != nil {
		t.Fatal(err)
	}
	// order_qty > MAJORITY of onhand quantities (1..5): strictly more
	// than half of {1,2,3,4,5} must be below order_qty.
	res := mustExec(t, db, `SELECT partno FROM quotations
		WHERE order_qty > MAJORITY (SELECT onhand_qty FROM inventory) ORDER BY 1`)
	// order_qty = 5p; need > 3 of {1..5} below: for p=1 (5): 4 of 5 → yes.
	if len(res.Rows) == 0 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("majority = %v", res.Rows)
	}
}

type majorityState struct{ yes, total int }

func (m *majorityState) Add(t datum.Tristate) {
	m.total++
	if t == datum.True {
		m.yes++
	}
}
func (m *majorityState) Result() datum.Tristate {
	if m.yes*2 > m.total {
		return datum.True
	}
	return datum.False
}
func (m *majorityState) Decided() bool { return false }

func TestSampleTableFunctionEndToEnd(t *testing.T) {
	// E19: SAMPLE(table, n) as a table function.
	db := paperDB(t)
	if err := db.RegisterTableFunc(&TableFunc{
		Name: "SAMPLE", NumTables: 1, NumScalars: 1,
		OutputCols: func(in [][]ColumnDef, _ []Value) ([]ColumnDef, error) {
			return in[0], nil
		},
		Eval: func(in []*Relation, scalars []Value) (*Relation, error) {
			n := int(scalars[0].Int())
			if n > len(in[0].Rows) {
				n = len(in[0].Rows)
			}
			return &Relation{Cols: in[0].Cols, Rows: in[0].Rows[:n]}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM SAMPLE(quotations, 3) s")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("sample count = %v", res.Rows[0][0])
	}
	// Table function over a derived table, with a WHERE above.
	res = mustExec(t, db, `SELECT COUNT(*) FROM SAMPLE((SELECT * FROM quotations WHERE partno > 2), 100) s`)
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("sample of subquery = %v", res.Rows[0][0])
	}
	// A function whose rows are narrower than the columns it declared
	// fails the statement.
	if err := db.RegisterTableFunc(&TableFunc{
		Name: "NARROW", NumTables: 1,
		OutputCols: func(in [][]ColumnDef, _ []Value) ([]ColumnDef, error) {
			return in[0], nil
		},
		Eval: func(in []*Relation, _ []Value) (*Relation, error) {
			return &Relation{Cols: in[0].Cols, Rows: []Row{{NewInt(1)}}}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT * FROM NARROW(quotations) s", nil); err == nil || !strings.Contains(err.Error(), "returned a row of 1 columns") {
		t.Fatalf("a table function returning short rows: got %v", err)
	}
}

func TestScalarFuncAndTypeExtension(t *testing.T) {
	db := paperDB(t)
	// The paper's Area(Width, Length) example.
	if err := db.RegisterScalarFunc(&ScalarFunc{
		Name: "AREA", MinArgs: 2, MaxArgs: 2,
		ReturnType: func(args []TypeID) (TypeID, error) { return args[0], nil },
		Eval: func(args []Value) (Value, error) {
			if args[0].IsNull() || args[1].IsNull() {
				return Null, nil
			}
			return datum.Mul(args[0], args[1])
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT AREA(partno, onhand_qty) FROM inventory WHERE partno = 3")
	if res.Rows[0][0].Int() != 9 {
		t.Fatalf("area = %v", res.Rows[0][0])
	}
	// DBC aggregate: StandardDeviation (paper example).
	if err := db.RegisterAggregate(&AggregateFunc{
		Name: "VARIANCE", EmptyIsNull: true,
		ReturnType: func(TypeID) (TypeID, error) { return datum.TFloat, nil },
		NewState:   func() AggState { return &varState{} },
	}); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, db, "SELECT VARIANCE(onhand_qty) FROM inventory")
	if res.Rows[0][0].Float() != 2 { // population variance of 1..5
		t.Fatalf("variance = %v", res.Rows[0][0])
	}
}

type varState struct {
	n          int64
	sum, sumSq float64
}

func (s *varState) Add(v Value) error {
	if v.IsNull() {
		return nil
	}
	s.n++
	s.sum += v.Float()
	s.sumSq += v.Float() * v.Float()
	return nil
}
func (s *varState) Result() Value {
	if s.n == 0 {
		return Null
	}
	mean := s.sum / float64(s.n)
	return NewFloat(s.sumSq/float64(s.n) - mean*mean)
}

func TestStorageManagerSelection(t *testing.T) {
	// Corona invokes the correct storage manager per table.
	db := Open()
	db.RegisterStorageManager(storage.NewFixedManager())
	mustExec(t, db, "CREATE TABLE f (a INT, b INT) USING fixed")
	mustExec(t, db, "INSERT INTO f VALUES (1, 2)")
	res := mustExec(t, db, "SELECT a + b FROM f")
	if res.Rows[0][0].Int() != 3 {
		t.Fatal("fixed table query")
	}
	// FIXED rejects strings.
	mustExec(t, db, "CREATE TABLE g (s STRING) USING fixed")
	if _, err := db.Exec("INSERT INTO g VALUES ('no')", nil); err == nil {
		t.Fatal("fixed manager must reject variable-length data")
	}
	if _, err := db.Exec("CREATE TABLE h (a INT) USING nosuch", nil); err == nil {
		t.Fatal("unknown storage manager must fail")
	}
}

func TestErrorPaths(t *testing.T) {
	db := paperDB(t)
	bad := []string{
		"SELECT nope FROM inventory",
		"SELECT * FROM nope",
		"SELECT partno FROM inventory WHERE price = (SELECT partno, onhand_qty FROM inventory)",
		"CREATE TABLE inventory (x INT)",
		"DROP TABLE nope",
		"CREATE INDEX i1 ON nope (x)",
		"INSERT INTO inventory VALUES (1)",
	}
	for _, q := range bad {
		if _, err := db.Exec(q, nil); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
	// Scalar subquery with two rows errors at runtime.
	if _, err := db.Exec(
		"SELECT partno FROM quotations WHERE price = (SELECT price FROM quotations WHERE partno < 3)", nil); err == nil {
		t.Error("multi-row scalar subquery must fail")
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, "SELECT partno FROM quotations ORDER BY partno DESC LIMIT 3")
	if !eqInts(intsOf(t, res, 0), []int64{8, 7, 6}) {
		t.Fatalf("desc limit = %v", intsOf(t, res, 0))
	}
}

func TestCaseEndToEnd(t *testing.T) {
	db := paperDB(t)
	res := mustExec(t, db, `SELECT partno,
		CASE WHEN onhand_qty < 2 THEN 'low' WHEN onhand_qty < 4 THEN 'mid' ELSE 'high' END
		FROM inventory ORDER BY partno`)
	want := []string{"low", "mid", "mid", "high", "high"}
	for i, w := range want {
		if res.Rows[i][1].Str() != w {
			t.Errorf("case row %d = %v, want %s", i, res.Rows[i][1], w)
		}
	}
}

func TestIOStatsSurface(t *testing.T) {
	db := paperDB(t)
	db.ResetIOStats()
	mustExec(t, db, "SELECT COUNT(*) FROM quotations")
	r, _, _ := db.IOStats()
	if r == 0 {
		t.Error("page reads must be counted")
	}
}

// TestRuntimeChoose: a CHOOSE with parameter guards survives into the
// plan and picks its alternative at runtime from host variables —
// section 5's "kept in the plan until runtime to allow a decision based
// on runtime parameters".
func TestRuntimeChoose(t *testing.T) {
	db := paperDB(t)
	stmt, err := sql.Parse("SELECT partno FROM inventory WHERE type = 'CPU'")
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.TranslateStatement(db.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Alternative: the DISK variant of the query.
	alt := rewrite.CloneSubgraph(g, g.Top)
	for _, p := range alt.Preds {
		p.Expr = expr.Transform(p.Expr, func(x expr.Expr) expr.Expr {
			if c, ok := x.(*expr.Const); ok && c.Val.Type() == datum.TString {
				return expr.NewConst(datum.NewString("DISK"))
			}
			return x
		})
	}
	ch := rewrite.WrapChoose(g, g.Top, alt)
	// Guard: run the CPU variant when :want = 'cpu'.
	ch.ChooseConds = []expr.Expr{
		&expr.Cmp{Op: expr.OpEq,
			L: &expr.Param{Name: "want", Typ: datum.TString},
			R: expr.NewConst(datum.NewString("cpu"))},
		nil, // default
	}
	g.Top = ch
	g.GC()
	if err := verify.Graph(g); err != nil {
		t.Fatal(err)
	}
	compiled, err := db.opt.OptimizeConfig(g, nil, optimizer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(compiled.Root.String(), "CHOOSE") {
		t.Fatalf("runtime CHOOSE must survive optimization:\n%s", compiled.Root)
	}
	run := func(want string) int {
		res, err := runPlan(db, compiled, map[string]Value{"want": NewString(want)})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	if n := run("cpu"); n != 3 {
		t.Fatalf("cpu alternative rows = %d, want 3", n)
	}
	if n := run("anything-else"); n != 2 { // DISK parts 2, 4
		t.Fatalf("default alternative rows = %d, want 2", n)
	}
}

// TestConcurrentQueries: read-only statements on one DB may run in
// parallel (the Ctx-threading design removes shared mutable execution
// state); run with -race to verify.
func TestConcurrentQueries(t *testing.T) {
	db := paperDB(t)
	queries := []string{
		"SELECT partno FROM inventory WHERE type = 'CPU'",
		`SELECT partno FROM quotations Q1 WHERE Q1.partno IN
			(SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty)`,
		"SELECT A1 FROM t1c WHERE A1 = 5 OR A2 = (SELECT B2 FROM t2c WHERE B1 = 16)",
		"SELECT type, COUNT(*) FROM inventory GROUP BY type",
	}
	mustExec(t, db, "CREATE TABLE t1c (A1 INT, A2 INT)")
	mustExec(t, db, "CREATE TABLE t2c (B1 INT, B2 INT)")
	mustExec(t, db, "INSERT INTO t1c VALUES (5, 42), (6, 42)")
	mustExec(t, db, "INSERT INTO t2c VALUES (16, 42)")
	done := make(chan error, 32)
	for w := 0; w < 8; w++ {
		go func(seed int) {
			for i := 0; i < 20; i++ {
				q := queries[(seed+i)%len(queries)]
				if _, err := db.Exec(q, nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
