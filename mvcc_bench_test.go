package starburst

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datum"
)

// Concurrent mixed workload: 8 goroutines over one table whose scans
// carry simulated per-page I/O latency (the slowRel wrapper from the
// parallel-execution benchmarks — on a single-CPU container the gains
// must come from overlapping waits, exactly like real page I/O). The
// stream is half scans, half single-key UPDATEs, with an occasional
// ANALYZE as the DDL representative. Each statement runs against its
// own snapshot, so scans overlap each other and every writer's
// statement, and writers on disjoint keys overlap too. (The replay of
// the retired DB-wide RWMutex this was once paired with is gone;
// bench/'s oltp_mixed workload is the standing measure.)
const mixedGoroutines = 8

func mixedBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	mustExec(b, db, `CREATE TABLE mixed (k INT NOT NULL, v INT NOT NULL)`)
	bulkLoad(b, db, "mixed", 256, func(i int) Row {
		return Row{datum.NewInt(int64(i)), datum.NewInt(int64(i))}
	})
	mustExec(b, db, `ANALYZE mixed`)
	// Wrap after seeding and ANALYZE so setup stays fast. ANALYZE
	// published a fresh catalog generation with a cloned Table struct,
	// so resolve the table only now; later generations (the in-loop
	// ANALYZE) clone the current struct and carry the wrapper along.
	tbl, _ := db.cat.Table("mixed")
	tbl.Rel = &slowRel{Relation: tbl.Rel, perPage: 300 * time.Microsecond}
	return db
}

func BenchmarkConcurrentMixedMVCC(b *testing.B) {
	db := mixedBenchDB(b)
	var next int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < mixedGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= b.N {
					return
				}
				var err error
				switch {
				case i%64 == 5: // DDL: republish stats under everyone's feet
					_, err = db.Exec(`ANALYZE mixed`, nil)
				case i%2 == 0: // scan
					_, err = db.Exec(`SELECT COUNT(*), SUM(v) FROM mixed WHERE v >= 0`, nil)
				default: // single-row DML in this goroutine's own key range
					q := fmt.Sprintf(`UPDATE mixed SET v = v + 1 WHERE k = %d`, g*32+i%32)
					_, err = db.Exec(q, nil)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
