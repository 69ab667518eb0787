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
// ANALYZE as the DDL representative. The pair measures what retiring
// the DB-wide statement RWMutex bought:
//
//   - ConcurrentMixedMVCC runs the statements bare — each against its
//     own snapshot, so scans overlap each other AND every writer's
//     statement, and writers on disjoint keys overlap too;
//   - ConcurrentMixedRWMutex replays the retired discipline with an
//     external sync.RWMutex (every DML/DDL exclusive, every scan
//     shared): writers serialize against everything, and each writer
//     drains all readers before its page waits even start.
//
// The two run identical statement streams against identical data, so
// the ns/op ratio isolates the locking discipline.
const mixedGoroutines = 8

func mixedBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	mustExec(b, db, `CREATE TABLE mixed (k INT NOT NULL, v INT NOT NULL)`)
	tbl, _ := db.cat.Table("mixed")
	for i := 0; i < 256; i++ {
		row := datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i))}
		if _, err := db.cat.Insert(tbl, row); err != nil {
			b.Fatal(err)
		}
	}
	mustExec(b, db, `ANALYZE mixed`)
	// Wrap after seeding and ANALYZE so setup stays fast. ANALYZE
	// published a fresh catalog generation with a cloned Table struct,
	// so re-resolve before wrapping; later generations (the in-loop
	// ANALYZE) clone the current struct and carry the wrapper along.
	tbl, _ = db.cat.Table("mixed")
	tbl.Rel = &slowRel{Relation: tbl.Rel, perPage: 300 * time.Microsecond}
	return db
}

func benchConcurrentMixed(b *testing.B, exclusive bool) {
	db := mixedBenchDB(b)
	var mu sync.RWMutex // stand-in for the retired DB-wide statement lock
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
					if exclusive {
						mu.Lock()
					}
					_, err = db.Exec(`ANALYZE mixed`, nil)
					if exclusive {
						mu.Unlock()
					}
				case i%2 == 0: // scan
					if exclusive {
						mu.RLock()
					}
					_, err = db.Exec(`SELECT COUNT(*), SUM(v) FROM mixed WHERE v >= 0`, nil)
					if exclusive {
						mu.RUnlock()
					}
				default: // single-row DML in this goroutine's own key range
					if exclusive {
						mu.Lock()
					}
					q := fmt.Sprintf(`UPDATE mixed SET v = v + 1 WHERE k = %d`, g*32+i%32)
					_, err = db.Exec(q, nil)
					if exclusive {
						mu.Unlock()
					}
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

func BenchmarkConcurrentMixedMVCC(b *testing.B)    { benchConcurrentMixed(b, false) }
func BenchmarkConcurrentMixedRWMutex(b *testing.B) { benchConcurrentMixed(b, true) }
