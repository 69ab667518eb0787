package optimizer

import "testing"

// TestAuditedPlans: with Audit on, every chosen plan must pass the
// structural plan verifier and agree with the QGM head on arity and
// types. Covers scans, joins, grouping, distinct, set ops, ORDER BY /
// LIMIT shaping, and DML: INSERT reads its source, while a searched
// UPDATE/DELETE is a leaf that reads its own table.
func TestAuditedPlans(t *testing.T) {
	c := testCatalog(t, 1000, 100)
	queries := []string{
		"SELECT v FROM t0 WHERE k = 5",
		"SELECT a.v FROM t0 a, t1 b WHERE a.k = b.k",
		"SELECT s, COUNT(*) FROM t0 GROUP BY s",
		"SELECT DISTINCT s FROM t0",
		"SELECT k FROM t0 UNION SELECT k FROM t1",
		"SELECT v FROM t0 WHERE k >= 10 ORDER BY v",
		"SELECT v FROM t0 ORDER BY k LIMIT 5",
		"SELECT v FROM t0 WHERE k IN (SELECT k FROM t1)",
		"INSERT INTO t0 VALUES (1, 2, 'x')",
		"INSERT INTO t0 SELECT k, v, s FROM t1",
		"UPDATE t0 SET v = (SELECT MAX(v) FROM t1) WHERE k = 5",
		"DELETE FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.k = t0.k)",
	}
	for _, q := range queries {
		compiled := optimizeConfig(t, c, q, nil, Config{Audit: true})
		if compiled.Root == nil {
			t.Errorf("%s: nil plan root", q)
		}
	}
}
