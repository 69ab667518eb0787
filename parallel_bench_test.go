// Benchmarks for parallel execution. The claim measured here:
// exchange parallelism overlaps I/O waits — on a table whose scans
// carry a simulated per-page latency, DOP=4 finishes the same
// statement several times faster than DOP=1 (the container may have a
// single CPU, so the speedup must come from overlapping waits, exactly
// like real page I/O — CPU-bound gains would need real cores).
package starburst

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/storage"
)

// slowRel wraps a Relation so every scanned page charges a simulated
// I/O latency, paid up front per page range. The wrapper preserves
// PageRangeScanner, so the optimizer still sees a splittable leaf; the
// morsel dispenser hands disjoint ranges to workers, whose sleeps then
// overlap — the effect intra-query parallelism exists to exploit.
type slowRel struct {
	storage.Relation
	perPage time.Duration
}

func (s *slowRel) Scan() storage.RowIterator {
	time.Sleep(time.Duration(s.PageCount()) * s.perPage)
	return s.Relation.Scan()
}

func (s *slowRel) ScanPages(lo, hi int64) storage.RowIterator {
	time.Sleep(time.Duration(hi-lo) * s.perPage)
	return s.Relation.(storage.PageRangeScanner).ScanPages(lo, hi)
}

// slowScanDB builds a table of nRows rows whose scans cost perPage of
// simulated latency per page.
func slowScanDB(b *testing.B, nRows int, perPage time.Duration) *DB {
	b.Helper()
	db := Open()
	mustExec(b, db, `CREATE TABLE big (k INT, v INT)`)
	bulkLoad(b, db, "big", nRows, bigRow)
	mustExec(b, db, "ANALYZE big")
	// Wrap after ANALYZE so setup scans stay fast; compiled plans see
	// the wrapper (eligibility is checked against Table.Rel). ANALYZE
	// published a fresh catalog generation with a cloned Table struct,
	// so resolve the table only now.
	tbl, _ := db.cat.Table("big")
	tbl.Rel = &slowRel{Relation: tbl.Rel, perPage: perPage}
	return db
}

func bigRow(i int) Row { return Row{datum.NewInt(int64(i % 97)), datum.NewInt(int64(i % 1000))} }

const parallelBenchQuery = `SELECT k, v FROM big WHERE v < 900`

func benchParallelScan(b *testing.B, dop int) {
	db := slowScanDB(b, 4096, 200*time.Microsecond)
	setDOP(db, dop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(parallelBenchQuery, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkParallelScanDOP1(b *testing.B) { benchParallelScan(b, 1) }
func BenchmarkParallelScanDOP4(b *testing.B) { benchParallelScan(b, 4) }

// TestParallelBenchSanity keeps the benchmark fixtures honest outside
// benchmark runs: the slow-scan DB parallelizes and returns the same
// rows at every DOP, and the wrapper really slows scans down.
func TestParallelBenchSanity(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE big (k INT, v INT)`)
	bulkLoad(t, db, "big", 1024, bigRow)
	mustExec(t, db, "ANALYZE big")
	tbl, _ := db.cat.Table("big") // ANALYZE cloned the Table; resolve it only now
	tbl.Rel = &slowRel{Relation: tbl.Rel, perPage: time.Microsecond}

	want := canonical(runAtDOP(t, db, 1, parallelBenchQuery))
	got := canonical(runAtDOP(t, db, 4, parallelBenchQuery))
	if got != want {
		t.Fatal("slow-scan parallel result diverged from serial")
	}
	setDOP(db, 4)
	plan := mustExec(t, db, "EXPLAIN "+parallelBenchQuery)
	var txt string
	for _, r := range plan.Rows {
		txt += fmt.Sprint(r[0]) + "\n"
	}
	if !strings.Contains(txt, "GATHER") {
		t.Fatalf("slow-scan plan not parallelized:\n%s", txt)
	}
}
