// Benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index. The paper (a systems-design paper) publishes no
// absolute numbers; these benchmarks regenerate the *shape* of each
// claim — which alternative wins, by roughly what factor, and where
// crossovers fall. EXPERIMENTS.md records measured results.
package starburst

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/verify"
)

// benchDB builds a synthetic quotations/inventory database with the
// given sizes.
func benchDB(b *testing.B, nQuot, nInv int, opts ...Option) *DB {
	b.Helper()
	db := Open(opts...)
	mustExec(b, db, `CREATE TABLE quotations (partno INT, price FLOAT, order_qty INT, suppno INT)`)
	mustExec(b, db, `CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)`)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < nQuot; i++ {
		mustExec(b, db, fmt.Sprintf("INSERT INTO quotations VALUES (%d, %d.5, %d, %d)",
			i%nInv+1, rng.Intn(1000), rng.Intn(100), rng.Intn(10)))
	}
	types := []string{"'CPU'", "'DISK'", "'RAM'", "'NIC'"}
	for i := 1; i <= nInv; i++ {
		mustExec(b, db, fmt.Sprintf("INSERT INTO inventory VALUES (%d, %d, %s)",
			i, rng.Intn(50), types[i%4]))
	}
	mustExec(b, db, "ANALYZE quotations")
	mustExec(b, db, "ANALYZE inventory")
	return db
}

const benchPaperQuery = `SELECT partno, price, order_qty FROM quotations Q1
	WHERE Q1.partno IN
	  (SELECT partno FROM inventory Q3
	   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`

// ---------------------------------------------------------------------
// E1 (Figure 1): per-phase cost of query processing.

func BenchmarkFig1PhaseParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(benchPaperQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1PhaseTranslate(b *testing.B) {
	db := benchDB(b, 64, 16)
	stmt, _ := sql.Parse(benchPaperQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qgm.TranslateStatement(db.Catalog(), stmt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1PhaseRewrite(b *testing.B) {
	db := benchDB(b, 64, 16)
	mustExec(b, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
	stmt, _ := sql.Parse(benchPaperQuery)
	eng := rewrite.NewDefaultEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := qgm.TranslateStatement(db.Catalog(), stmt)
		b.StartTimer()
		if _, err := eng.Rewrite(g, rewrite.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1PhaseOptimize(b *testing.B) {
	db := benchDB(b, 64, 16)
	stmt, _ := sql.Parse(benchPaperQuery)
	eng := rewrite.NewDefaultEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := qgm.TranslateStatement(db.Catalog(), stmt)
		eng.Rewrite(g, rewrite.Options{})
		b.StartTimer()
		if _, err := db.Optimizer().OptimizeConfig(g, nil, optimizer.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1PhaseExecute(b *testing.B) {
	db := benchDB(b, 512, 64)
	stmt, err := db.Prepare(benchPaperQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1EndToEnd(b *testing.B) {
	db := benchDB(b, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(benchPaperQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1EndToEndTraced is Fig1EndToEnd with phase tracing armed;
// the delta against the untraced run is the tracing overhead (a Trace
// allocation plus a few clock reads per statement).
func BenchmarkFig1EndToEndTraced(b *testing.B) {
	db := benchDB(b, 512, 64)
	setTracing(db, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(benchPaperQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1EndToEndInstrumented additionally runs every operator
// under the per-operator stats decorator (armed via a slow-query
// threshold that never fires) — the full EXPLAIN ANALYZE-grade cost.
func BenchmarkFig1EndToEndInstrumented(b *testing.B) {
	db := benchDB(b, 512, 64)
	db.SetSlowQueryThreshold(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(benchPaperQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E3 (Figure 2) / E4: the subquery-to-join + merge rewrite, and its
// execution-time effect.

func BenchmarkFig2RewritePhase(b *testing.B) {
	db := benchDB(b, 64, 16)
	mustExec(b, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
	stmt, _ := sql.Parse(benchPaperQuery)
	eng := rewrite.NewDefaultEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := qgm.TranslateStatement(db.Catalog(), stmt)
		b.StartTimer()
		trace, err := eng.Rewrite(g, rewrite.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(trace) < 2 {
			b.Fatalf("rules did not fire: %v", trace)
		}
	}
}

func BenchmarkSubqueryToJoin(b *testing.B) {
	run := func(b *testing.B, prep func(*DB)) {
		db := benchDB(b, 2000, 500)
		prep(db)
		stmt, err := db.Prepare(benchPaperQuery)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rewrite=off", func(b *testing.B) {
		run(b, func(db *DB) { setSkipRewrite(db, true) })
	})
	b.Run("rewrite=on+uniqueindex", func(b *testing.B) {
		run(b, func(db *DB) {
			mustExec(b, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
			mustExec(b, db, "ANALYZE inventory")
		})
	})
}

// ---------------------------------------------------------------------
// E6: predicate push-down (rewrite on/off execution cost).

func BenchmarkPredicatePushdown(b *testing.B) {
	q := `SELECT partno FROM
		(SELECT DISTINCT partno, price, order_qty FROM quotations) d
		WHERE d.partno = 7`
	run := func(b *testing.B, skip bool) {
		db := benchDB(b, 5000, 100)
		setSkipRewrite(db, skip)
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		db.ResetIOStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rewrite=off", func(b *testing.B) { run(b, true) })
	b.Run("rewrite=on", func(b *testing.B) { run(b, false) })
}

// ---------------------------------------------------------------------
// E7: projection push-down.

func BenchmarkProjectionPushdown(b *testing.B) {
	q := `SELECT d.partno FROM
		(SELECT partno, price, order_qty, suppno FROM quotations) d, inventory i
		WHERE d.partno = i.partno`
	run := func(b *testing.B, skip bool) {
		db := benchDB(b, 5000, 100)
		setSkipRewrite(db, skip)
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rewrite=off", func(b *testing.B) { run(b, true) })
	b.Run("rewrite=on", func(b *testing.B) { run(b, false) })
}

// ---------------------------------------------------------------------
// E8: view merging — stacked views vs the hand-inlined query.

func BenchmarkViewMerge(b *testing.B) {
	setup := func(b *testing.B) *DB {
		db := benchDB(b, 5000, 100)
		mustExec(b, db, `CREATE VIEW cheap AS SELECT partno, price, order_qty FROM quotations WHERE price < 500`)
		mustExec(b, db, `CREATE VIEW cheap_small AS SELECT partno, order_qty FROM cheap WHERE order_qty < 50`)
		return db
	}
	viewQuery := "SELECT partno FROM cheap_small WHERE partno = 3"
	inlined := `SELECT partno FROM quotations WHERE price < 500 AND order_qty < 50 AND partno = 3`
	b.Run("views+rewrite=off", func(b *testing.B) {
		db := setup(b)
		setSkipRewrite(db, true)
		stmt, _ := db.Prepare(viewQuery)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
	b.Run("views+rewrite=on", func(b *testing.B) {
		db := setup(b)
		stmt, _ := db.Prepare(viewQuery)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
	b.Run("hand-inlined", func(b *testing.B) {
		db := setup(b)
		stmt, _ := db.Prepare(inlined)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
}

// ---------------------------------------------------------------------
// E9: rule engine control strategies.

func BenchmarkRuleEngineStrategies(b *testing.B) {
	for _, s := range []struct {
		name string
		st   rewrite.Strategy
	}{
		{"sequential", rewrite.Sequential},
		{"priority", rewrite.Priority},
		{"statistical", rewrite.Statistical},
	} {
		b.Run(s.name, func(b *testing.B) {
			db := benchDB(b, 64, 16)
			mustExec(b, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
			stmt, _ := sql.Parse(benchPaperQuery)
			eng := rewrite.NewDefaultEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, _ := qgm.TranslateStatement(db.Catalog(), stmt)
				b.StartTimer()
				if _, err := eng.Rewrite(g, rewrite.Options{Strategy: s.st, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E11: join enumerator scaling (chain queries of growing arity) and the
// bushy/Cartesian switches.

func chainQuery(n int) string {
	q := "SELECT a0.v FROM t0 a0"
	for i := 1; i < n; i++ {
		q += fmt.Sprintf(", t%d a%d", i, i)
	}
	for i := 1; i < n; i++ {
		if i == 1 {
			q += " WHERE a0.k = a1.k"
		} else {
			q += fmt.Sprintf(" AND a%d.k = a%d.k", i-1, i)
		}
	}
	return q
}

func chainDB(b testing.TB, n int) *DB {
	db := Open()
	for i := 0; i < n; i++ {
		mustExec(b, db, fmt.Sprintf("CREATE TABLE t%d (k INT, v INT)", i))
		loadRows(b, db, fmt.Sprintf("t%d", i), 50, func(r int) string { return fmt.Sprintf("%d, %d", r, r*i) })
		mustExec(b, db, fmt.Sprintf("ANALYZE t%d", i))
	}
	return db
}

// fanQuery joins a fact table f to n dimensions d1..dn, each on its own
// foreign key: unlike the chain's equalities these imply no others, so
// the join graph is a star, not a clique.
func fanQuery(n int) string {
	q := "SELECT f.v FROM f"
	var preds []string
	for i := 1; i <= n; i++ {
		q += fmt.Sprintf(", d%d", i)
		preds = append(preds, fmt.Sprintf("f.k%d = d%d.k", i, i))
	}
	return q + " WHERE " + strings.Join(preds, " AND ")
}

// fanDB loads fanQuery's tables: 200 fact rows, dimension i 20*i rows.
func fanDB(t testing.TB, n int) *DB {
	db := Open()
	var fcols []string
	for i := 1; i <= n; i++ {
		fcols = append(fcols, fmt.Sprintf("k%d INT", i))
		mustExec(t, db, fmt.Sprintf("CREATE TABLE d%d (k INT, v INT)", i))
		loadRows(t, db, fmt.Sprintf("d%d", i), 20*i, func(r int) string { return fmt.Sprintf("%d, %d", r, r%7) })
		mustExec(t, db, fmt.Sprintf("ANALYZE d%d", i))
	}
	mustExec(t, db, "CREATE TABLE f ("+strings.Join(fcols, ", ")+", v INT)")
	loadRows(t, db, "f", 200, func(r int) string {
		vals := make([]string, n+1)
		for i := 1; i <= n; i++ {
			vals[i-1] = fmt.Sprint(r * (i + 2) % (20 * i))
		}
		vals[n] = fmt.Sprint(r)
		return strings.Join(vals, ", ")
	})
	mustExec(t, db, "ANALYZE f")
	return db
}

// benchOptimize measures OptimizeConfig of q on db, re-translating the
// statement outside the timer.
func benchOptimize(b *testing.B, db *DB, q string) {
	b.ReportAllocs()
	stmt, _ := sql.Parse(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := qgm.TranslateStatement(db.Catalog(), stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := db.Optimizer().OptimizeConfig(g, nil, optimizer.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinEnumerator(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			benchOptimize(b, chainDB(b, n), chainQuery(n))
		})
	}
	b.Run("star-6", func(b *testing.B) {
		benchOptimize(b, fanDB(b, 5), fanQuery(5))
	})
	b.Run("chain-6-bushy", func(b *testing.B) {
		db := chainDB(b, 6)
		db.Optimizer().AllowBushy = true
		benchOptimize(b, db, chainQuery(6))
	})
}

// ---------------------------------------------------------------------
// E13: access path crossover — index vs scan as selectivity sweeps.

func BenchmarkAccessPathCrossover(b *testing.B) {
	const rows = 20000
	setup := func(b *testing.B, withIndex bool) *DB {
		db := Open()
		mustExec(b, db, "CREATE TABLE big (k INT, v INT)")
		for i := 0; i < rows; i++ {
			mustExec(b, db, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i%97))
		}
		if withIndex {
			mustExec(b, db, "CREATE INDEX big_k ON big (k)")
		}
		mustExec(b, db, "ANALYZE big")
		return db
	}
	for _, sel := range []struct {
		name string
		hi   int
	}{
		{"sel=0.01%", 2}, {"sel=1%", rows / 100}, {"sel=50%", rows / 2},
	} {
		q := fmt.Sprintf("SELECT v FROM big WHERE k >= 0 AND k < %d", sel.hi)
		b.Run(sel.name+"/scan", func(b *testing.B) {
			db := setup(b, false)
			stmt, _ := db.Prepare(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stmt.Query(context.Background(), nil)
			}
		})
		b.Run(sel.name+"/optimizer-choice", func(b *testing.B) {
			db := setup(b, true)
			stmt, _ := db.Prepare(q)
			b.Logf("chosen plan:\n%s", stmt.Plan())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stmt.Query(context.Background(), nil)
			}
		})
	}
}

// ---------------------------------------------------------------------
// E14: join methods on the same equijoin (kind fixed, method varied).

func BenchmarkJoinMethods(b *testing.B) {
	const n = 3000
	q := "SELECT a.v FROM l a, r b WHERE a.k = b.k"
	setup := func(b *testing.B, drop ...string) *DB {
		db := Open()
		mustExec(b, db, "CREATE TABLE l (k INT, v INT)")
		mustExec(b, db, "CREATE TABLE r (k INT, v INT)")
		for i := 0; i < n; i++ {
			mustExec(b, db, fmt.Sprintf("INSERT INTO l VALUES (%d, %d)", i, i))
			mustExec(b, db, fmt.Sprintf("INSERT INTO r VALUES (%d, %d)", i, i))
		}
		mustExec(b, db, "ANALYZE l")
		mustExec(b, db, "ANALYZE r")
		for _, d := range drop {
			db.Optimizer().Generator().RemoveAlternative("JOIN", d)
		}
		return db
	}
	b.Run("nestedloop", func(b *testing.B) {
		db := setup(b, "HashJoin", "MergeJoin")
		stmt, _ := db.Prepare(q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
	b.Run("hash", func(b *testing.B) {
		db := setup(b, "NestedLoop", "MergeJoin")
		stmt, _ := db.Prepare(q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
	b.Run("merge", func(b *testing.B) {
		db := setup(b, "NestedLoop", "HashJoin")
		stmt, _ := db.Prepare(q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
	b.Run("optimizer-choice", func(b *testing.B) {
		db := setup(b)
		stmt, _ := db.Prepare(q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stmt.Query(context.Background(), nil)
		}
	})
}

// ---------------------------------------------------------------------
// E15: evaluate-on-demand subquery caching.

func BenchmarkEvaluateOnDemand(b *testing.B) {
	q := `SELECT corr FROM o WHERE EXISTS
		(SELECT 1 FROM inn WHERE inn.k = o.corr AND inn.v >= 0)`
	run := func(b *testing.B, distinctCorrs int) {
		db := Open()
		mustExec(b, db, "CREATE TABLE o (corr INT)")
		mustExec(b, db, "CREATE TABLE inn (k INT, v INT)")
		for i := 0; i < 200; i++ {
			mustExec(b, db, fmt.Sprintf("INSERT INTO o VALUES (%d)", i%distinctCorrs))
		}
		for i := 0; i < 2000; i++ {
			mustExec(b, db, fmt.Sprintf("INSERT INTO inn VALUES (%d, %d)", i%200, i))
		}
		mustExec(b, db, "ANALYZE o")
		mustExec(b, db, "ANALYZE inn")
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("2-distinct-corr-values", func(b *testing.B) { run(b, 2) })
	b.Run("200-distinct-corr-values", func(b *testing.B) { run(b, 200) })
}

// ---------------------------------------------------------------------
// E16: the OR-of-subqueries query of section 7.

func BenchmarkORSubquery(b *testing.B) {
	db := Open()
	mustExec(b, db, "CREATE TABLE T1 (A1 INT, A2 INT)")
	mustExec(b, db, "CREATE TABLE T2 (B1 INT, B2 INT)")
	for i := 0; i < 2000; i++ {
		mustExec(b, db, fmt.Sprintf("INSERT INTO T1 VALUES (%d, %d)", i%10, i%50))
	}
	mustExec(b, db, "INSERT INTO T2 VALUES (16, 42)")
	mustExec(b, db, "ANALYZE T1")
	mustExec(b, db, "ANALYZE T2")
	stmt, err := db.Prepare(`SELECT A1 FROM T1 WHERE T1.A1 = 5 OR T1.A2 =
		(SELECT B2 FROM T2 WHERE T2.B1 = 16)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E20: recursion (transitive closure) across graph depths.

func BenchmarkRecursion(b *testing.B) {
	q := `WITH RECURSIVE reach (s, d) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.s, e.dst FROM reach r, edges e WHERE r.d = e.src)
		SELECT COUNT(*) FROM reach`
	for _, depth := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("chain-depth-%d", depth), func(b *testing.B) {
			db := Open()
			mustExec(b, db, "CREATE TABLE edges (src INT, dst INT)")
			for i := 0; i < depth; i++ {
				mustExec(b, db, fmt.Sprintf("INSERT INTO edges VALUES (%d, %d)", i, i+1))
			}
			mustExec(b, db, "ANALYZE edges")
			stmt, err := db.Prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E21: spatial access method (R-tree window query vs table scan).

func BenchmarkSpatialAccess(b *testing.B) {
	q := "SELECT id FROM pts WHERE x >= 10 AND x <= 12 AND y >= 10 AND y <= 12"
	run := func(b *testing.B, withRtree bool) {
		db := Open()
		db.RegisterAccessMethod(storage.RTreeMethod{})
		mustExec(b, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
		n := 0
		for gx := 0; gx < 70; gx++ {
			for gy := 0; gy < 70; gy++ {
				n++
				mustExec(b, db, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.0, %d.0)", n, gx, gy))
			}
		}
		if withRtree {
			mustExec(b, db, "CREATE INDEX pts_xy ON pts (x, y) USING rtree")
		}
		mustExec(b, db, "ANALYZE pts")
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("tablescan", func(b *testing.B) { run(b, false) })
	b.Run("rtree", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------
// E17: outer join through QGM (kind under two methods).

func BenchmarkOuterJoin(b *testing.B) {
	db := benchDB(b, 3000, 300)
	stmt, err := db.Prepare(`SELECT q.partno, i.onhand_qty FROM quotations q
		LEFT OUTER JOIN inventory i ON q.partno = i.partno`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E5/E2 structural micro-benchmarks: QGM construction and consistency
// checking.

func BenchmarkQGMTranslateAndCheck(b *testing.B) {
	db := benchDB(b, 64, 16)
	stmt, _ := sql.Parse(benchPaperQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := qgm.TranslateStatement(db.Catalog(), stmt)
		if err != nil {
			b.Fatal(err)
		}
		if err := verify.Graph(g); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E25: magic-sets-style restriction of recursive queries — single
// source reachability with the rewrite rule on vs off.

func BenchmarkMagicRecursionRestriction(b *testing.B) {
	q := `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT COUNT(*) FROM reach WHERE src = 0`
	run := func(b *testing.B, skip bool) {
		db := Open()
		setSkipRewrite(db, skip)
		mustExec(b, db, "CREATE TABLE edges (src INT, dst INT)")
		// 40 disjoint chains of length 20: the full closure has
		// 40*(20*21/2) pairs, the restricted one only 210.
		for c := 0; c < 40; c++ {
			for i := 0; i < 20; i++ {
				mustExec(b, db, fmt.Sprintf("INSERT INTO edges VALUES (%d, %d)",
					c*100+i, c*100+i+1))
			}
		}
		mustExec(b, db, "ANALYZE edges")
		// src = 0 only exists in chain 0.
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rewrite=off(full-closure)", func(b *testing.B) { run(b, true) })
	b.Run("rewrite=on(restricted)", func(b *testing.B) { run(b, false) })
}

// ---------------------------------------------------------------------
// Ablations of the optimizer's search controls (section 6: "query-
// specific parameters to limit the search space").

// BenchmarkRankPruningAblation measures optimization time with and
// without rank pruning of higher-rank STAR alternatives.
func BenchmarkRankPruningAblation(b *testing.B) {
	run := func(b *testing.B, maxRank int) {
		db := chainDB(b, 6)
		for i := 0; i < 6; i++ {
			mustExec(b, db, fmt.Sprintf("CREATE INDEX t%d_k ON t%d (k)", i, i))
			mustExec(b, db, fmt.Sprintf("ANALYZE t%d", i))
		}
		db.Optimizer().Generator().MaxRank = maxRank
		stmt, _ := sql.Parse(chainQuery(6))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g, _ := qgm.TranslateStatement(db.Catalog(), stmt)
			b.StartTimer()
			if _, err := db.Optimizer().OptimizeConfig(g, nil, optimizer.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("all-ranks", func(b *testing.B) { run(b, 0) })
	b.Run("maxrank=1", func(b *testing.B) { run(b, 1) })
}

// BenchmarkRewriteBudgetAblation sweeps the rule engine's budget: plan
// quality (execution time) improves monotonically as the budget allows
// more of the Figure-2 rewrite sequence to fire.
func BenchmarkRewriteBudgetAblation(b *testing.B) {
	for _, budget := range []int{0, 1, 2} {
		name := fmt.Sprintf("budget=%d", budget)
		if budget == 0 {
			name = "budget=unlimited"
		}
		b.Run(name, func(b *testing.B) {
			db := benchDB(b, 2000, 500)
			mustExec(b, db, "CREATE UNIQUE INDEX inv_pk ON inventory (partno)")
			mustExec(b, db, "ANALYZE inventory")
			setRewriteBudget(db, budget)
			stmt, err := db.Prepare(benchPaperQuery)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E29: predicate replication — deriving a constant restriction across a
// join equality can enable an index on the other side.

func BenchmarkPredicateReplication(b *testing.B) {
	q := "SELECT a.v FROM ta a, tb b WHERE a.k = b.k AND a.k = 77"
	run := func(b *testing.B, skip bool) {
		db := Open()
		setSkipRewrite(db, skip)
		mustExec(b, db, "CREATE TABLE ta (k INT, v INT)")
		mustExec(b, db, "CREATE TABLE tb (k INT, v INT)")
		for i := 0; i < 5000; i++ {
			mustExec(b, db, fmt.Sprintf("INSERT INTO ta VALUES (%d, %d)", i, i))
			mustExec(b, db, fmt.Sprintf("INSERT INTO tb VALUES (%d, %d)", i, i))
		}
		// Index only on tb: without replication the constant restriction
		// exists only on ta, so tb must be scanned in full.
		mustExec(b, db, "CREATE UNIQUE INDEX tb_k ON tb (k)")
		mustExec(b, db, "ANALYZE ta")
		mustExec(b, db, "ANALYZE tb")
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rewrite=off", func(b *testing.B) { run(b, true) })
	b.Run("rewrite=on(replicated)", func(b *testing.B) { run(b, false) })
}

// ---------------------------------------------------------------------
// PR-5: plan-cache amortization. The workload is a 6-way join chain
// over near-empty tables: join enumeration makes compilation (parse +
// translate + rewrite + optimize) dominate the cold path, while a
// cache hit skips all of it and pays only execution plus one LRU
// lookup.

func planCacheBenchDB(b *testing.B, opts ...Option) (*DB, string) {
	b.Helper()
	const n = 6
	db := Open(opts...)
	for i := 0; i < n; i++ {
		mustExec(b, db, fmt.Sprintf("CREATE TABLE t%d (k INT, v INT)", i))
		for r := 0; r < 4; r++ {
			mustExec(b, db, fmt.Sprintf("INSERT INTO t%d VALUES (%d, %d)", i, r, r*i))
		}
		mustExec(b, db, fmt.Sprintf("ANALYZE t%d", i))
	}
	return db, chainQuery(n)
}

func BenchmarkPlanCacheColdCompile(b *testing.B) {
	db, q := planCacheBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	db, q := planCacheBenchDB(b, WithPlanCache(64))
	if _, err := db.Exec(q, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := db.PlanCacheStats(); s.Hits < int64(b.N) {
		b.Fatalf("hit path missed the cache: %+v", s)
	}
}

// ---------------------------------------------------------------------
// PR-7 durable storage: the disk manager's write path (WAL append +
// group fsync per statement) and scan path (buffer pool over slotted
// pages) against the same workload on the in-memory heap.

func diskBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open(withDataFS("bench", disk.NewMemFS(), disk.Options{}),
		WithDefaultStorage("DISK"))
	if err := db.OpenErr(); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchInsert(b *testing.B, db *DB) {
	mustExec(b, db, `CREATE TABLE pts (id INT, v INT)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf(`INSERT INTO pts VALUES (%d, %d)`, i, i%97)
		if _, err := db.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScan(b *testing.B, db *DB) {
	mustExec(b, db, `CREATE TABLE pts (id INT, v INT)`)
	for i := 0; i < 2000; i++ {
		mustExec(b, db, fmt.Sprintf(`INSERT INTO pts VALUES (%d, %d)`, i, i%97))
	}
	mustExec(b, db, `ANALYZE pts`)
	stmt, err := db.Prepare(`SELECT COUNT(*), SUM(id) FROM pts WHERE v < 50`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskInsert(b *testing.B) { benchInsert(b, diskBenchDB(b)) }
func BenchmarkHeapInsert(b *testing.B) { benchInsert(b, Open()) }
func BenchmarkDiskScan(b *testing.B)   { benchScan(b, diskBenchDB(b)) }
func BenchmarkHeapScan(b *testing.B)   { benchScan(b, Open()) }
