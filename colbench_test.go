package starburst

// Columnar-execution and cardinality-feedback benchmarks. The Col/Row
// pair runs the same scan→filter→aggregate statement through the fused
// columnar kernels and through the row operators. The feedback pair
// prices the loop: the overhead of running armed (instrumented +
// capture walk), and the post-fold replan cycle (generational
// invalidation + recompile).

import (
	"fmt"
	"testing"

	"repro/internal/datum"
)

// colBenchDB is a wide-enough table that per-row dispatch dominates:
// the row path touches every field through datum.Value, the columnar
// path runs typed kernels over lanes.
func colBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	mustExec(b, db, `CREATE TABLE cb (k INT, v INT, w INT)`)
	bulkLoad(b, db, "cb", 32768, func(i int) Row {
		return Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(i % 1024)),
			datum.NewInt(int64(i % 11)),
		}
	})
	mustExec(b, db, "ANALYZE cb")
	return db
}

const colBenchQuery = `SELECT w, COUNT(*), SUM(v) FROM cb WHERE v < 400 GROUP BY w`

func benchColScanFilterAgg(b *testing.B, vectorized bool) {
	db := colBenchDB(b)
	db.kernelsOff = !vectorized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(colBenchQuery, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 11 {
			b.Fatalf("%d groups", len(res.Rows))
		}
	}
}

func BenchmarkColScanFilterAgg(b *testing.B) { benchColScanFilterAgg(b, true) }
func BenchmarkRowScanFilterAgg(b *testing.B) { benchColScanFilterAgg(b, false) }

// feedbackBenchDB mirrors feedback_test.go's divergence scenario at
// benchmark scale: small_t's statistics are 300x stale, so the first
// armed execution folds an overlay and bumps the catalog version.
func feedbackBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open(WithPlanCache(16))
	mustExec(b, db, `CREATE TABLE small_t (v INT)`)
	mustExec(b, db, `CREATE TABLE big_t (v INT)`)
	for i := 0; i < 3; i++ {
		mustExec(b, db, fmt.Sprintf(`INSERT INTO small_t VALUES (%d)`, i))
	}
	for i := 0; i < 100; i++ {
		mustExec(b, db, fmt.Sprintf(`INSERT INTO big_t VALUES (%d)`, i))
	}
	mustExec(b, db, `ANALYZE small_t`)
	mustExec(b, db, `ANALYZE big_t`)
	for i := 3; i < 1003; i++ {
		mustExec(b, db, fmt.Sprintf(`INSERT INTO small_t VALUES (%d)`, i))
	}
	return db
}

const feedbackBenchQuery = `SELECT COUNT(*) FROM small_t s, big_t b WHERE s.v < b.v`

// BenchmarkFeedbackOffExec is the baseline: the same statement with
// the loop disarmed (vectorized, plan-cached).
func BenchmarkFeedbackOffExec(b *testing.B) {
	db := feedbackBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(feedbackBenchQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackArmedExec runs with feedback armed after the fold
// has settled: steady-state price of instrumented execution plus the
// capture walk that finds nothing left to fold.
func BenchmarkFeedbackArmedExec(b *testing.B) {
	db := feedbackBenchDB(b)
	setFeedback(db, true)
	mustExec(b, db, feedbackBenchQuery) // fold + replan once, then settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(feedbackBenchQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackReplan is the post-fold cycle: every iteration
// invalidates the cached plan the way a fold does (catalog version
// bump) and pays the recompile against overlay-corrected estimates
// plus the execution.
func BenchmarkFeedbackReplan(b *testing.B) {
	db := feedbackBenchDB(b)
	setFeedback(db, true)
	mustExec(b, db, feedbackBenchQuery) // seed the overlay
	setFeedback(db, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.cat.BumpVersion()
		if _, err := db.Exec(feedbackBenchQuery, nil); err != nil {
			b.Fatal(err)
		}
	}
}
