package starburst

import (
	"context"
	gosql "database/sql"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// cacheDB opens a plan-cached DB with a populated inventory table.
func cacheDB(t testing.TB, capacity int) *DB {
	t.Helper()
	db := Open(WithPlanCache(capacity))
	db.MustExec(`CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)`, nil)
	for i := 0; i < 32; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO inventory VALUES (%d, %d, '%s')`,
			i, i*10, []string{"CPU", "DISK", "RAM", "NIC"}[i%4]), nil)
	}
	db.cache.reset() // measure from a clean slate
	return db
}

func TestPlanCacheHitMiss(t *testing.T) {
	db := cacheDB(t, 16)
	base := db.PlanCacheStats()

	const q = `SELECT partno FROM inventory WHERE type = 'CPU'`
	db.MustExec(q, nil)
	s := db.PlanCacheStats()
	if s.Misses != base.Misses+1 || s.Hits != base.Hits {
		t.Fatalf("first execution: want 1 miss 0 hits, got %+v", s)
	}
	db.MustExec(q, nil)
	db.MustExec(q, nil)
	s = db.PlanCacheStats()
	if s.Hits != base.Hits+2 || s.Misses != base.Misses+1 {
		t.Fatalf("re-executions must hit: got %+v", s)
	}
	if s.Size != 1 {
		t.Fatalf("want 1 live entry, got %d", s.Size)
	}

	// Results from a cached plan match a fresh compile.
	cold := Open()
	cold.MustExec(`CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)`, nil)
	for i := 0; i < 32; i++ {
		cold.MustExec(fmt.Sprintf(`INSERT INTO inventory VALUES (%d, %d, '%s')`,
			i, i*10, []string{"CPU", "DISK", "RAM", "NIC"}[i%4]), nil)
	}
	want := cold.MustExec(q, nil)
	got := db.MustExec(q, nil)
	if fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
		t.Fatalf("cached result diverged:\nwant %v\ngot  %v", want.Rows, got.Rows)
	}
}

func TestPlanCacheNormalization(t *testing.T) {
	db := cacheDB(t, 16)
	db.MustExec(`SELECT partno FROM inventory WHERE type = 'CPU'`, nil)
	// Same statement modulo case and whitespace: must hit.
	db.MustExec("select   partno\n\tFROM inventory WHERE type = 'CPU'", nil)
	s := db.PlanCacheStats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("normalized respelling must hit: %+v", s)
	}
	// Different literal content (including case inside the literal):
	// distinct entries.
	db.MustExec(`SELECT partno FROM inventory WHERE type = 'cpu'`, nil)
	s = db.PlanCacheStats()
	if s.Misses != 2 {
		t.Fatalf("literal-differing statement must miss: %+v", s)
	}
	// Parameterized statement: one entry across bindings.
	const qp = `SELECT partno FROM inventory WHERE type = :t`
	db.MustExec(qp, map[string]Value{"t": NewString("CPU")})
	r1 := db.MustExec(qp, map[string]Value{"t": NewString("DISK")})
	s = db.PlanCacheStats()
	if s.Misses != 3 || s.Hits != 2 {
		t.Fatalf("parameter rebinding must reuse one entry: %+v", s)
	}
	if len(r1.Rows) == 0 {
		t.Fatal("rebound execution returned no rows")
	}
}

// Every DDL statement kind and the statistics updater must invalidate
// affected cached plans.
func TestPlanCacheInvalidationEveryDDLKind(t *testing.T) {
	ddls := []string{
		`CREATE TABLE scratch (a INT)`,
		`CREATE INDEX scratch_a ON scratch (a)`,
		`CREATE VIEW vscratch AS SELECT a FROM scratch`,
		`ANALYZE inventory`,
		`DROP VIEW vscratch`,
		`DROP INDEX scratch_a ON scratch`,
		`DROP TABLE scratch`,
	}
	db := cacheDB(t, 16)
	const q = `SELECT partno FROM inventory WHERE onhand_qty > 50`
	for i, ddl := range ddls {
		db.MustExec(q, nil) // prime (miss or re-prime after invalidation)
		db.MustExec(q, nil) // hit proves it is cached
		before := db.PlanCacheStats()
		db.MustExec(ddl, nil)
		db.MustExec(q, nil)
		after := db.PlanCacheStats()
		if after.Invalidations != before.Invalidations+1 {
			t.Fatalf("step %d (%s): want invalidation %d, got %d",
				i, ddl, before.Invalidations+1, after.Invalidations)
		}
		if after.Hits != before.Hits {
			t.Fatalf("step %d (%s): post-DDL execution must not hit a stale plan", i, ddl)
		}
		if after.Misses != before.Misses+1 {
			t.Fatalf("step %d (%s): post-DDL execution must recompile", i, ddl)
		}
	}
}

// Sessions with different plan-affecting settings must not share
// entries: a DOP-4 session's plan may contain exchange operators a
// serial session must never execute.
func TestPlanCacheFingerprintIsolation(t *testing.T) {
	db := cacheDB(t, 16)
	db.opt.SetParallelThreshold(1)

	serial := db.NewSession()
	parallel := db.NewSession()
	setDOP(parallel, 4)

	const q = `SELECT type FROM inventory ORDER BY type`
	ctx := context.Background()
	r1, err := serial.Query(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := parallel.Query(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := db.PlanCacheStats()
	if s.Misses != 2 || s.Hits != 0 || s.Size != 2 {
		t.Fatalf("DOP 1 and DOP 4 must compile separate entries: %+v", s)
	}
	// Each session hits its own entry on re-execution.
	if _, err := serial.Query(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := parallel.Query(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	if s = db.PlanCacheStats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("per-fingerprint re-execution must hit: %+v", s)
	}
	if fmt.Sprint(r1.Rows) != fmt.Sprint(r2.Rows) {
		t.Fatalf("serial and parallel plans disagree:\n%v\n%v", r1.Rows, r2.Rows)
	}
}

func TestPlanCacheLRUBound(t *testing.T) {
	const capacity = 4
	db := cacheDB(t, capacity)
	for i := 0; i < 3*capacity; i++ {
		db.MustExec(fmt.Sprintf(`SELECT partno FROM inventory WHERE partno = %d`, i), nil)
	}
	s := db.PlanCacheStats()
	if s.Size > capacity {
		t.Fatalf("cache exceeded its bound: %+v", s)
	}
	if s.Evictions != int64(3*capacity-capacity) {
		t.Fatalf("want %d evictions, got %+v", 3*capacity-capacity, s)
	}
	// The most recently used entries survive churn.
	last := fmt.Sprintf(`SELECT partno FROM inventory WHERE partno = %d`, 3*capacity-1)
	db.MustExec(last, nil)
	if got := db.PlanCacheStats(); got.Hits != s.Hits+1 {
		t.Fatalf("most recent entry must still be cached: %+v", got)
	}
}

func TestPlanCacheMetricsExposed(t *testing.T) {
	db := cacheDB(t, 8)
	const q = `SELECT partno FROM inventory`
	db.MustExec(q, nil)
	db.MustExec(q, nil)
	var b strings.Builder
	if _, err := db.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, metric := range []string{
		MetricPlanCacheHits, MetricPlanCacheMisses,
		MetricPlanCacheEvictions, MetricPlanCacheInvalidations,
		MetricPlanCacheSize,
	} {
		if !strings.Contains(dump, metric) {
			t.Fatalf("metrics exposition missing %s:\n%s", metric, dump)
		}
	}
}

func TestPlanCachePrepareShares(t *testing.T) {
	db := cacheDB(t, 8)
	const q = `SELECT partno FROM inventory WHERE type = :t`
	db.MustExec(q, map[string]Value{"t": NewString("CPU")})
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	s := db.PlanCacheStats()
	if s.Hits != 1 {
		t.Fatalf("Prepare of an ad-hoc-cached statement must hit: %+v", s)
	}
	res, err := st.Query(context.Background(), map[string]Value{"t": NewString("DISK")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("prepared run returned no rows")
	}
}

// Disabled cache: zero stats, no caching.
func TestPlanCacheDisabled(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a INT)`, nil)
	db.MustExec(`SELECT a FROM t`, nil)
	db.MustExec(`SELECT a FROM t`, nil)
	if s := db.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("cache-off DB must report zero stats, got %+v", s)
	}
}

// sortedRows renders a result set order-independently, so serial and
// parallel executions compare as multisets.
func sortedRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestConcurrentSessionsStress is the concurrency-contract stress: many
// goroutines running mixed queries, prepared statements, cancellations,
// and DDL (on scratch tables disjoint from the queried data, so query
// results stay comparable to serial execution) against one shared DB
// with the plan cache on. Run under -race this validates the RWMutex
// statement contract and the immutability of shared cached plans.
func TestConcurrentSessionsStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 60
	)
	db := cacheDB(t, 32)
	db.opt.SetParallelThreshold(1)

	queries := []string{
		`SELECT partno FROM inventory WHERE type = 'CPU'`,
		`SELECT type, COUNT(*) FROM inventory GROUP BY type`,
		`SELECT partno, onhand_qty FROM inventory WHERE onhand_qty > :q ORDER BY partno`,
		`SELECT DISTINCT type FROM inventory`,
	}
	params := map[string]Value{"q": NewInt(100)}

	// Serial baseline, computed before any concurrency.
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := db.Exec(q, params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedRows(res.Rows)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			setDOP(sess, 1+g%4) // mix of serial and parallel sessions
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				switch {
				case g == 0 && i%10 == 4:
					// DDL churn on scratch tables: exclusive lock plus
					// cache invalidation, interleaved with queries.
					name := fmt.Sprintf("scratch_%d", i)
					if _, err := sess.Query(ctx, `CREATE TABLE `+name+` (a INT)`, nil); err != nil {
						t.Errorf("create %s: %v", name, err)
						continue
					}
					if _, err := sess.Query(ctx, `DROP TABLE `+name, nil); err != nil {
						t.Errorf("drop %s: %v", name, err)
					}
				case g == 1 && i%10 == 7:
					// ANALYZE is the statistics-update invalidation path.
					if _, err := sess.Query(ctx, `ANALYZE inventory`, nil); err != nil {
						t.Errorf("analyze: %v", err)
					}
				case g == 2 && i%10 == 5:
					// Pre-cancelled statements must fail cleanly, not race.
					cctx, cancel := context.WithCancel(ctx)
					cancel()
					if _, err := sess.Query(cctx, queries[i%len(queries)], params); err == nil {
						// A cancelled context may still win the race on
						// tiny results; either outcome is acceptable.
						continue
					}
				case g == 3 && i%10 == 9:
					// Prepared statements share the cache too.
					st, err := sess.Prepare(queries[i%len(queries)])
					if err != nil {
						t.Errorf("prepare: %v", err)
						continue
					}
					res, err := st.Query(ctx, params)
					if err != nil {
						t.Errorf("prepared run: %v", err)
						continue
					}
					q := i % len(queries)
					if got := sortedRows(res.Rows); fmt.Sprint(got) != fmt.Sprint(want[q]) {
						t.Errorf("goroutine %d prepared query %d diverged from serial", g, q)
					}
				default:
					q := i % len(queries)
					res, err := sess.Query(ctx, queries[q], params)
					if err != nil {
						t.Errorf("goroutine %d query %d: %v", g, q, err)
						continue
					}
					if got := sortedRows(res.Rows); fmt.Sprint(got) != fmt.Sprint(want[q]) {
						t.Errorf("goroutine %d query %d diverged from serial:\nwant %v\ngot  %v",
							g, q, want[q], got)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles the cache is still bounded and consistent,
	// and the DB still answers queries.
	s := db.PlanCacheStats()
	if s.Size > s.Capacity {
		t.Fatalf("cache over capacity after stress: %+v", s)
	}
	for i, q := range queries {
		res, err := db.Exec(q, params)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(res.Rows); fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("post-stress query %d diverged from serial", i)
		}
	}
}

// Sessions are isolated: a limit set on one session must not throttle
// another, and a DB-level default applies only to snapshots taken
// after it.
func TestSessionSettingIsolation(t *testing.T) {
	db := cacheDB(t, 8)
	tight := db.NewSession()
	setLimits(tight, Limits{MaxMem: 100})
	loose := db.NewSession()

	// The sort must materialize well over 100 bytes, tripping the
	// memory budget at reservation time (not amortized).
	const q = `SELECT partno FROM inventory ORDER BY onhand_qty`
	ctx := context.Background()
	if _, err := tight.Query(ctx, q, nil); err == nil {
		t.Fatal("100-byte memory budget must trip on a 32-row sort")
	} else {
		var rerr *ResourceError
		if !errors.As(err, &rerr) {
			t.Fatalf("want ResourceError through the wrap chain, got %T: %v", err, err)
		}
	}
	if _, err := loose.Query(ctx, q, nil); err != nil {
		t.Fatalf("unlimited session was throttled: %v", err)
	}
}

// TestPreparedStatementRevalidates: a prepared statement holds a plan,
// and DDL after Prepare can invalidate it exactly as it invalidates a
// cached plan — a dropped index is no longer maintained, a dropped
// table's storage holds ghost rows. Every way to hold a prepared
// statement must answer like the ad-hoc statement does.
func TestPreparedStatementRevalidates(t *testing.T) {
	const byA, byB = `SELECT b FROM t WHERE a = 7`, `SELECT a FROM t WHERE b = 1`
	// handle prepares q and returns how to run it (as a row count) and
	// how to end whatever transaction the runs were inside.
	type handle func(t *testing.T, db *DB, q string) (run func() int, end func())
	handles := map[string]handle{
		"DB.Prepare": func(t *testing.T, db *DB, q string) (func() int, func()) {
			st, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			return func() int {
				res, err := st.Query(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				return len(res.Rows)
			}, func() {}
		},
		// Prepared before the DDL, run inside a transaction begun after it.
		"Session.Prepare in Tx": func(t *testing.T, db *DB, q string) (func() int, func()) {
			sess := db.NewSession()
			st, err := sess.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var tx *Tx
			return func() int {
					if tx == nil {
						if tx, err = sess.Begin(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
					res, err := st.Query(context.Background(), nil)
					if err != nil {
						t.Fatal(err)
					}
					return len(res.Rows)
				}, func() {
					if err := tx.Rollback(); err != nil {
						t.Fatal(err)
					}
					tx = nil
				}
		},
		"database/sql": func(t *testing.T, db *DB, q string) (func() int, func()) {
			RegisterDSN(t.Name(), db)
			sdb, err := gosql.Open(DriverName, t.Name())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sdb.Close() })
			sdb.SetMaxOpenConns(1) // one connection, so one driver-level prepared statement
			st, err := sdb.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			return func() int {
				rows, err := st.Query()
				if err != nil {
					t.Fatal(err)
				}
				defer rows.Close()
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				return n
			}, func() {}
		},
	}
	for name, prepare := range handles {
		t.Run(name, func(t *testing.T) {
			db := Open()
			mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
			for i := 0; i < 50; i++ {
				mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i%5))
			}
			mustExec(t, db, `CREATE INDEX ia ON t (a)`)
			mustExec(t, db, `ANALYZE t`)
			if !strings.Contains(explainText(t, db, byA), "ISCAN") {
				t.Fatalf("setup: %s does not probe the index", byA)
			}
			runA, endA := prepare(t, db, byA)
			runB, endB := prepare(t, db, byB)
			if n := runA(); n != 1 {
				t.Fatalf("before DDL: %d rows, want 1", n)
			}
			endA()

			// The plan probes ia; once dropped, ia misses the new row.
			mustExec(t, db, `DROP INDEX ia ON t`)
			mustExec(t, db, `INSERT INTO t VALUES (7, 99)`)
			want := len(mustExec(t, db, byA).Rows)
			if n := runA(); n != want || want != 2 {
				t.Fatalf("after DROP INDEX: prepared returns %d rows, ad-hoc %d, want 2", n, want)
			}
			endA()

			// The plan scans the dropped table's storage and binds its
			// column order.
			if n := runB(); n != 10 {
				t.Fatalf("before DROP TABLE: %d rows, want 10", n)
			}
			endB()
			mustExec(t, db, `DROP TABLE t`)
			mustExec(t, db, `CREATE TABLE t (b INT, a INT)`)
			if n := runB(); n != 0 {
				t.Fatalf("after DROP/CREATE TABLE: prepared returns %d ghost rows", n)
			}
			endB()
		})
	}
}
