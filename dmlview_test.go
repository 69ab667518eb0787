package starburst

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// dmlViewSetup is the base table every TestDMLThroughViews case starts
// from: negatives, NULLs in each column and strings for LIKE.
const dmlViewSetup = `CREATE TABLE t (a INT, b INT, s STRING);
INSERT INTO t VALUES (1, -10, 'x'), (2, 20, 'ab'), (3, NULL, 'abc'), (-4, 5, NULL), (NULL, 1, 'b')`

// dmlViews are the views the cases update through. v renames and
// permutes t's columns, w aliases its table and filters, sv is a star
// view, cv's column list overrides its select-list aliases and sc's
// covers a star plus a computed column.
var dmlViews = []string{
	"CREATE VIEW v (b, a, n) AS SELECT a, b, s FROM t",
	"CREATE VIEW w AS SELECT x.a, x.b FROM t x WHERE x.a > 0",
	"CREATE VIEW sv AS SELECT * FROM t WHERE b > 0",
	"CREATE VIEW cv (p, q) AS SELECT b AS z, a FROM t",
	"CREATE VIEW sc (x, y, z, d) AS SELECT *, a + b FROM t",
}

// TestDMLThroughViews: an UPDATE or DELETE through an updatable view
// resolves its names as a query over the view would, so it affects the
// same rows and writes the same values as its twin written by hand
// against the base table. Each case runs in autocommit, inside an
// explicit transaction and under Audit.
func TestDMLThroughViews(t *testing.T) {
	cases := []struct{ name, stmt, twin string }{
		{"set-function", "UPDATE v SET a = ABS(b) WHERE b = 1",
			"UPDATE t SET b = ABS(a) WHERE a = 1"},
		{"where-function", "UPDATE v SET a = 7 WHERE ABS(b) = 1",
			"UPDATE t SET b = 7 WHERE ABS(a) = 1"},
		{"case", "UPDATE v SET a = CASE WHEN b = 1 THEN 5 ELSE 6 END WHERE b = 1",
			"UPDATE t SET b = CASE WHEN a = 1 THEN 5 ELSE 6 END WHERE a = 1"},
		{"in-subquery", "DELETE FROM v WHERE b IN (SELECT a FROM t)",
			"DELETE FROM t WHERE a IN (SELECT a FROM t)"},
		{"in-subquery-selective", "DELETE FROM v WHERE b IN (SELECT a + 1 FROM t)",
			"DELETE FROM t WHERE a IN (SELECT a + 1 FROM t)"},
		{"aliased-view", "UPDATE w SET b = 0 WHERE b < 10",
			"UPDATE t SET b = 0 WHERE b < 10 AND a > 0"},
		{"aliased-view-delete", "DELETE FROM w WHERE b IS NULL",
			"DELETE FROM t WHERE b IS NULL AND a > 0"},
		{"between", "UPDATE v SET b = 0 WHERE a BETWEEN 0 AND 25",
			"UPDATE t SET a = 0 WHERE b BETWEEN 0 AND 25"},
		{"like", "DELETE FROM v WHERE n LIKE 'ab%'",
			"DELETE FROM t WHERE s LIKE 'ab%'"},
		{"is-null", "UPDATE v SET a = -1 WHERE a IS NULL",
			"UPDATE t SET b = -1 WHERE b IS NULL"},
		{"in-list", "DELETE FROM v WHERE b IN (1, 3)",
			"DELETE FROM t WHERE a IN (1, 3)"},
		{"qualified", "UPDATE v SET a = v.b * 2 WHERE v.b > 1",
			"UPDATE t SET b = t.a * 2 WHERE t.a > 1"},
		{"statement-alias", "UPDATE v x SET a = x.b, n = 'y' WHERE x.b < 3",
			"UPDATE t y SET b = y.a, s = 'y' WHERE y.a < 3"},
		{"star-view", "UPDATE sv SET s = 'z' WHERE a < 3",
			"UPDATE t SET s = 'z' WHERE a < 3 AND b > 0"},
		{"column-list", "UPDATE cv SET p = q WHERE q > 0",
			"UPDATE t SET b = a WHERE a > 0"},
		{"star-and-computed", "UPDATE sc SET x = 5 WHERE y = 20",
			"UPDATE t SET a = 5 WHERE b = 20"},
		{"scalar-subquery", "UPDATE v SET a = (SELECT MAX(b) FROM t) WHERE b = 2",
			"UPDATE t SET b = (SELECT MAX(b) FROM t) WHERE a = 2"},
		{"correlated-exists", "DELETE FROM v x WHERE EXISTS (SELECT 1 FROM t y WHERE y.a = x.b + 1)",
			"DELETE FROM t x WHERE EXISTS (SELECT 1 FROM t y WHERE y.a = x.a + 1)"},
		{"or-deferred", "UPDATE v SET a = 0 WHERE b = -4 OR n IN (SELECT s FROM t WHERE a = 2)",
			"UPDATE t SET b = 0 WHERE a = -4 OR s IN (SELECT s FROM t WHERE a = 2)"},
	}
	for _, mode := range []string{"autocommit", "tx", "audit"} {
		for _, c := range cases {
			t.Run(mode+"/"+c.name, func(t *testing.T) {
				got, gotRows := runDMLCase(t, mode, true, c.stmt)
				want, wantRows := runDMLCase(t, mode, false, c.twin)
				if got != want {
					t.Errorf("%s: affected %d, twin %s affected %d", c.stmt, got, c.twin, want)
				}
				if !slices.Equal(gotRows, wantRows) {
					t.Errorf("%s: t = %v\ntwin %s: t = %v", c.stmt, gotRows, c.twin, wantRows)
				}
			})
		}
	}

	// Ambiguous targets and non-updatable columns still fail, and leave
	// the table as it was.
	db := dmlViewDB(t, Settings{}, true)
	for _, v := range []string{
		"CREATE VIEW agg AS SELECT a, COUNT(*) n FROM t GROUP BY a",
		"CREATE VIEW total AS SELECT COUNT(*) n FROM t",
		"CREATE VIEW dv AS SELECT DISTINCT a FROM t",
		"CREATE VIEW jv AS SELECT x.a FROM t x, t y WHERE x.a = y.b",
		"CREATE VIEW nv AS SELECT b, a FROM v",
	} {
		mustExec(t, db, v)
	}
	before := baseRows(t, db)
	for _, stmt := range []string{
		"UPDATE agg SET a = 1",
		"DELETE FROM agg WHERE n > 0",
		"DELETE FROM total",
		"DELETE FROM dv WHERE a = 1",
		"DELETE FROM jv",
		"UPDATE nv SET a = 1",
		"UPDATE sc SET d = 1",
		"UPDATE v SET s = 'q'",
	} {
		if _, err := db.Exec(stmt, nil); err == nil {
			t.Errorf("%s: want an error", stmt)
		}
	}
	if after := baseRows(t, db); !slices.Equal(before, after) {
		t.Errorf("rejected statements changed t: %v -> %v", before, after)
	}
}

// runDMLCase runs stmt on a fresh database (with the views when
// views is set) in the given mode and returns the rows affected and the
// final contents of t.
func runDMLCase(t *testing.T, mode string, views bool, stmt string) (int64, []string) {
	t.Helper()
	var set Settings
	if mode == "audit" {
		set.Audit = true
	}
	db := dmlViewDB(t, set, views)
	var res *Result
	var err error
	if mode == "tx" {
		tx, berr := db.Begin(context.Background())
		if berr != nil {
			t.Fatal(berr)
		}
		if res, err = tx.Exec(stmt, nil); err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Rollback()
		}
	} else {
		res, err = db.Exec(stmt, nil)
	}
	if err != nil {
		t.Fatalf("%s: %s: %v", mode, stmt, err)
	}
	return res.Affected, baseRows(t, db)
}

func dmlViewDB(t *testing.T, set Settings, views bool) *DB {
	t.Helper()
	db := Open(WithSettings(set))
	for _, q := range strings.Split(dmlViewSetup, ";") {
		mustExec(t, db, q)
	}
	if views {
		for _, v := range dmlViews {
			mustExec(t, db, v)
		}
	}
	return db
}

// baseRows returns t's rows, printed and sorted.
func baseRows(t *testing.T, db *DB) []string {
	t.Helper()
	res := mustExec(t, db, "SELECT a, b, s FROM t")
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}
