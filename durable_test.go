package starburst

// Durability tests: schema and row persistence across reopen, WAL DDL
// replay, HEAP-vs-DISK engine equivalence, and the crash-recovery
// torture harness — a crash fault at every WAL-append, WAL-sync and
// checkpoint-page-write ordinal over a DML+DDL workload, with the
// recovered state checked against a serial oracle replay.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// diskOpts keeps pages and checkpoint intervals small so the tests
// exercise page growth, eviction and mid-workload checkpoints.
var diskOpts = disk.Options{PageSize: 512, PoolPages: 8, CheckpointEvery: 3}

// diskDB opens a DISK-default DB over fs. Reopening with the same fs
// recovers the directory.
func diskDB(tb testing.TB, fs disk.FS, extra ...Option) *DB {
	tb.Helper()
	opts := append([]Option{withDataFS("data", fs, diskOpts), WithDefaultStorage("DISK")}, extra...)
	db := Open(opts...)
	if err := db.OpenErr(); err != nil {
		tb.Fatalf("open data dir: %v", err)
	}
	return db
}

// contentSnapshot images every table as its sorted row set (RIDs
// included: recovery replays physiological records, so even physical
// placement must match a serial rerun).
func contentSnapshot(tb testing.TB, db *DB) map[string][]string {
	tb.Helper()
	out := map[string][]string{}
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		t, ok := cat.Table(name)
		if !ok {
			tb.Fatalf("no table %s", name)
		}
		rows := []string{}
		it := storage.UnwrapRelation(t.Rel).Scan()
		for {
			row, rid, ok := it.Next()
			if !ok {
				break
			}
			rows = append(rows, fmt.Sprintf("%v@%v", datum.RowKey(row), rid))
		}
		it.Close()
		sort.Strings(rows)
		out[name] = rows
	}
	return out
}

func TestDataDirPersistenceAcrossReopen(t *testing.T) {
	fs := disk.NewMemFS()
	db := diskDB(t, fs)
	mustExec(t, db, `CREATE TABLE items (id INT NOT NULL, qty INT, tag STRING)`)
	mustExec(t, db, `CREATE INDEX items_id ON items (id)`)
	mustExec(t, db, `CREATE VIEW big AS SELECT id, qty FROM items WHERE qty > 15`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO items VALUES (%d, %d, 'tag-%d')`, i, i*10, i))
	}
	mustExec(t, db, `DELETE FROM items WHERE id = 7`)
	mustExec(t, db, `UPDATE items SET qty = 0 WHERE id = 9`)
	want := contentSnapshot(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := diskDB(t, fs)
	if got := contentSnapshot(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state differs:\ngot:  %v\nwant: %v", got, want)
	}
	// Schema objects came back: the index serves queries, the view
	// resolves, and new DML lands in both heap and index.
	checkIndexConsistency(t, db2)
	res := mustExec(t, db2, `SELECT COUNT(*) FROM big`)
	if res.Rows[0][0].Int() != 17 { // 19 live rows, id 9 zeroed, id<=1 filtered: 20-1(deleted)-1(qty 0)-1(qty 10)
		t.Fatalf("view over recovered data: %v", res.Rows)
	}
	mustExec(t, db2, `INSERT INTO items VALUES (100, 1000, 'new')`)
	res = mustExec(t, db2, `SELECT tag FROM items WHERE id = 100`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "new" {
		t.Fatalf("post-recovery insert not visible via index: %v", res.Rows)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDataDirNonDiskTablesPersistSchemaOnly(t *testing.T) {
	fs := disk.NewMemFS()
	// HEAP stays the default here: no WithDefaultStorage.
	db := Open(withDataFS("data", fs, diskOpts))
	if err := db.OpenErr(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE mem (a INT)`)
	mustExec(t, db, `CREATE TABLE dur (a INT) USING DISK`)
	mustExec(t, db, `INSERT INTO mem VALUES (1)`)
	mustExec(t, db, `INSERT INTO dur VALUES (2)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(withDataFS("data", fs, diskOpts))
	if err := db2.OpenErr(); err != nil {
		t.Fatal(err)
	}
	// The MEMORY-table convention: schema survives, rows do not.
	if res := mustExec(t, db2, `SELECT COUNT(*) FROM mem`); res.Rows[0][0].Int() != 0 {
		t.Fatalf("HEAP rows survived reopen: %v", res.Rows)
	}
	if res := mustExec(t, db2, `SELECT a FROM dur`); len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("DISK rows lost: %v", res.Rows)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDataDirDDLReplayAfterCrash(t *testing.T) {
	fs := disk.NewMemFS()
	db := diskDB(t, fs)
	// Force a checkpoint (so a catalog snapshot exists), then run DDL
	// past it — the post-snapshot statements replay from the WAL.
	mustExec(t, db, `CREATE TABLE base (id INT, x FLOAT)`)
	mustExec(t, db, `INSERT INTO base VALUES (1, 1.5)`)
	if err := db.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE late (id INT)`)
	mustExec(t, db, `INSERT INTO late VALUES (42)`)
	mustExec(t, db, `CREATE INDEX base_id ON base (id)`)
	mustExec(t, db, `CREATE TABLE doomed (z INT)`)
	mustExec(t, db, `INSERT INTO doomed VALUES (9)`)
	mustExec(t, db, `DROP TABLE doomed`)
	// Crash without Close: no final checkpoint, recovery replays it all.
	fs.Crash()

	db2 := diskDB(t, fs)
	if res := mustExec(t, db2, `SELECT id FROM late`); len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("late table not replayed: %v", res.Rows)
	}
	if _, err := db2.Exec(`SELECT z FROM doomed`, nil); err == nil {
		t.Fatal("dropped table resurrected by replay")
	}
	bt, ok := db2.Catalog().Table("base")
	if !ok || len(bt.Indexes) != 1 || bt.Indexes[0].Name != "BASE_ID" {
		t.Fatalf("replayed index missing: %+v", bt)
	}
	checkIndexConsistency(t, db2)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCorpusOnDisk runs a broad statement corpus against a
// DISK-backed DB and an in-memory HEAP DB and requires identical
// results — the durable manager must be observationally equivalent. It
// runs at the production batch width and at width 2, where DISK scans
// stop mid-page.
func TestEngineCorpusOnDisk(t *testing.T) {
	for _, width := range []int{0, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) { engineCorpusOnDisk(t, width) })
	}
}

func engineCorpusOnDisk(t *testing.T, width int) {
	setup := []string{
		`CREATE TABLE items (id INT NOT NULL, qty INT, tag STRING)`,
		`CREATE INDEX items_id ON items (id)`,
		`CREATE TABLE orders (oid INT, item INT, n INT)`,
		`CREATE VIEW expensive AS SELECT id, qty FROM items WHERE qty >= 40`,
	}
	for i := 1; i <= 12; i++ {
		tag := "CPU"
		if i%2 == 0 {
			tag = "MEM"
		}
		setup = append(setup, fmt.Sprintf(`INSERT INTO items VALUES (%d, %d, '%s')`, i, i*10, tag))
	}
	for i := 1; i <= 9; i++ {
		setup = append(setup, fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, %d)`, i, i%5+1, i*3))
	}
	setup = append(setup,
		`UPDATE items SET qty = qty + 5 WHERE tag = 'MEM'`,
		`DELETE FROM orders WHERE n > 24`,
		`ANALYZE items`, `ANALYZE orders`,
	)
	queries := []string{
		`SELECT id, qty FROM items WHERE id = 7`,
		`SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag ORDER BY tag`,
		`SELECT i.id, o.n FROM items i, orders o WHERE i.id = o.item ORDER BY i.id, o.n`,
		`SELECT id FROM items WHERE qty > (SELECT AVG(n) FROM orders) ORDER BY id`,
		`SELECT * FROM expensive ORDER BY id`,
		`SELECT DISTINCT tag FROM items ORDER BY tag`,
		`SELECT id FROM items ORDER BY qty DESC LIMIT 3`,
	}

	heap := Open()
	fs := disk.NewMemFS()
	dd := diskDB(t, fs)
	dd.colWidth = width
	for _, q := range setup {
		mustExec(t, heap, q)
		mustExec(t, dd, q)
	}
	check := func(label string, db *DB) {
		for _, q := range queries {
			want := mustExec(t, heap, q)
			got := mustExec(t, db, q)
			if fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
				t.Fatalf("%s: %s\nheap: %v\ndisk: %v", label, q, want.Rows, got.Rows)
			}
		}
	}
	check("disk", dd)
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	// Same corpus, same answers, after a clean reopen...
	dd2 := diskDB(t, fs)
	dd2.colWidth = width
	check("disk-reopened", dd2)
	// ...and after a hard crash (recovery from checkpoint + WAL).
	fs.Crash()
	dd3 := diskDB(t, fs)
	dd3.colWidth = width
	check("disk-recovered", dd3)
	if err := dd3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskParallelScan drives the exchange path over the disk manager:
// DOP>1 morsel scans must see every page range, at DOP 1 and 4 and at
// the production batch width and width 2 (mid-page stops).
func TestDiskParallelScan(t *testing.T) {
	fs := disk.NewMemFS()
	db := diskDB(t, fs)
	mustExec(t, db, `CREATE TABLE big (id INT, v INT)`)
	for i := 0; i < 300; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO big VALUES (%d, %d)`, i, i%7))
	}
	mustExec(t, db, `ANALYZE big`)
	wantN, wantSum := int64(0), int64(0)
	for i := 0; i < 300; i++ {
		if i%7 < 5 {
			wantN++
			wantSum += int64(i)
		}
	}
	for _, dop := range []int{1, 4} {
		for _, width := range []int{0, 2} {
			setDOP(db, dop)
			db.colWidth = width
			res := mustExec(t, db, `SELECT COUNT(*), SUM(id) FROM big WHERE v < 5`)
			if res.Rows[0][0].Int() != wantN || res.Rows[0][1].Int() != wantSum {
				t.Fatalf("disk scan at DOP %d, width %d: %v, want [%d %d]", dop, width, res.Rows, wantN, wantSum)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskScanAllocationFlat: a cached scan+GROUP over a DISK table
// allocates the same bytes per execution whatever the table size —
// records decode from pinned pages straight into the scan's pooled
// lanes, with no row per record. Frozen, the scan reads through
// NextCols; versioned (an open transaction holds an uncommitted update)
// it resolves each record through Next, which hands out the iterator's
// scratch row. The table carries a STRING column of five values, which
// the scan's interner decodes once each, and is at least six times the
// buffer pool, so every page read is a pool miss that recycles a frame.
// The least of 30 executions is compared: under the race detector the
// batch pool drops a share of what it is given, and a dropped batch is
// regrown.
func TestDiskScanAllocationFlat(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		t.Run(fmt.Sprintf("versioned=%v", versioned), func(t *testing.T) { diskScanAllocationFlat(t, versioned) })
	}
}

func diskScanAllocationFlat(t *testing.T, versioned bool) {
	const q = "SELECT g, COUNT(*), SUM(v), MAX(f), MIN(s) FROM d GROUP BY g"
	const poolPages = 8
	perExec := func(rows int) uint64 {
		db := Open(withDataFS("data", disk.NewMemFS(), disk.Options{PageSize: 1024, PoolPages: poolPages}),
			WithDefaultStorage("DISK"), WithPlanCache(8))
		defer db.Close()
		setDOP(db, 1)
		mustExec(t, db, "CREATE TABLE d (g INT, v INT, f FLOAT, b BOOL, s STRING)")
		for lo := 0; lo < rows; lo += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO d VALUES ")
			for i := lo; i < lo+500; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, %d.5, %v, '%s')", i%7, i, i, i%2 == 0, []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}[i%5])
			}
			mustExec(t, db, sb.String())
		}
		tbl, _ := db.Catalog().Table("d")
		if pages := tbl.Rel.PageCount(); pages < 6*poolPages {
			t.Fatalf("%d rows fill %d pages, not six times the %d-frame pool", rows, pages, poolPages)
		}
		if versioned {
			tx, err := db.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback()
			if _, err := tx.Exec("UPDATE d SET v = v + 1 WHERE v = 0", nil); err != nil {
				t.Fatal(err)
			}
			if tbl.MVCC.Count() == 0 {
				t.Fatal("the open update left no version: the scans would read frozen")
			}
		}
		mustExec(t, db, q)
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 30 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if res := mustExec(t, db, q); len(res.Rows) != 7 {
				t.Fatalf("%d rows: got %d groups, want 7", rows, len(res.Rows))
			}
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		return least
	}
	small, large := perExec(2000), perExec(8000)
	t.Logf("2000 rows: %d B per execution, 8000 rows: %d B", small, large)
	if float64(large) > 1.1*float64(small) {
		t.Fatalf("8000 rows allocate %d B per execution, 2000 rows %d B: the scan allocates per record", large, small)
	}
}

// TestDiskScanVersionSwitchStress scans a DISK table through SQL while
// a writer commits balance-preserving transfers and row moves (delete
// plus insert) and rolls back arbitrary inserts, updates and deletes.
// A scan starts on the frozen path and switches to per-record version
// resolution whenever the writer creates versions; at batch width 2
// the switch lands mid-page. Every scan must see a committed state:
// the row count and the balance total never change.
func TestDiskScanVersionSwitchStress(t *testing.T) {
	const rows, bal = 120, 100
	db := diskDB(t, disk.NewMemFS())
	db.colWidth = 2
	mustExec(t, db, `CREATE TABLE acct (id INT NOT NULL, bal INT)`)
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d)`, i, bal))
	}

	done := make(chan struct{})
	scanErr := make(chan error, 1)
	scans := 0
	// stop ends the scanner and waits for it, also when the writer
	// fails; a second call finds scanErr closed and returns nil.
	stopped := false
	stop := func() error {
		if !stopped {
			stopped = true
			close(done)
		}
		return <-scanErr
	}
	defer stop()
	go func() {
		defer close(scanErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := db.Exec(`SELECT COUNT(*), SUM(bal) FROM acct`, nil)
			if err != nil {
				scanErr <- err
				return
			}
			if n, sum := res.Rows[0][0].Int(), res.Rows[0][1].Int(); n != rows || sum != rows*bal {
				scanErr <- fmt.Errorf("scan %d saw %d rows summing to %d, want %d and %d", scans, n, sum, rows, rows*bal)
				return
			}
			scans++
		}
	}()

	rng := rand.New(rand.NewSource(1))
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	next := int64(rows)
	ctx := context.Background()
	exec := func(tx *Tx, q string) *Result {
		t.Helper()
		res, err := tx.Exec(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	for i := 0; i < 150; i++ {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rng.Intn(len(ids)), rng.Intn(len(ids))
		switch rng.Intn(3) {
		case 0: // transfer
			d := rng.Intn(50)
			exec(tx, fmt.Sprintf(`UPDATE acct SET bal = bal - %d WHERE id = %d`, d, ids[a]))
			exec(tx, fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, d, ids[b]))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		case 1: // move a balance to a new row
			v := exec(tx, fmt.Sprintf(`SELECT bal FROM acct WHERE id = %d`, ids[a])).Rows[0][0].Int()
			exec(tx, fmt.Sprintf(`DELETE FROM acct WHERE id = %d`, ids[a]))
			exec(tx, fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d)`, next, v))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			ids[a] = next
			next++
		default: // anything, rolled back
			exec(tx, fmt.Sprintf(`INSERT INTO acct VALUES (%d, 7), (%d, 8)`, next, next+1))
			exec(tx, fmt.Sprintf(`UPDATE acct SET bal = bal + 1000 WHERE id = %d`, ids[a]))
			exec(tx, fmt.Sprintf(`DELETE FROM acct WHERE id = %d`, ids[b]))
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			time.Sleep(time.Millisecond) // let versions freeze between bursts
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d consistent scans", scans)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Crash-recovery torture

// tortureWorkload is the statement sequence the crash harness drives:
// every DML kind from the PR-2 atomicity matrix (multi-row insert,
// insert-select, index-key update, delete) plus post-snapshot DDL
// (create/drop of tables and indexes), all deterministic and
// abort-free.
var tortureWorkload = []string{
	`CREATE TABLE items (id INT NOT NULL, qty INT, tag STRING)`,
	`CREATE INDEX items_id ON items (id)`,
	`INSERT INTO items VALUES (1, 10, 'A')`,
	`INSERT INTO items VALUES (2, 20, 'B'), (3, 30, 'C'), (4, 40, 'D')`,
	`INSERT INTO items SELECT id + 100, qty, 'COPY' FROM items`,
	`UPDATE items SET id = id + 1000 WHERE qty >= 30`,
	`DELETE FROM items WHERE id = 1`,
	`CREATE TABLE extra (a INT, b STRING)`,
	`INSERT INTO extra VALUES (7, 'seven'), (8, 'eight')`,
	`UPDATE items SET tag = 'X' WHERE qty = 20`,
	`DROP TABLE extra`,
	`INSERT INTO items VALUES (500, 50, 'E')`,
}

// runTortureWorkload executes the workload until a crash fault fires,
// returning the number of statements acknowledged as committed and
// whether the store crashed (false = the schedule ran clean).
func runTortureWorkload(t *testing.T, db *DB) (acked int, crashed bool) {
	t.Helper()
	for _, q := range tortureWorkload {
		_, err := db.Exec(q, nil)
		if err == nil {
			acked++
			continue
		}
		var ce *CrashError
		if !errors.As(err, &ce) && !errors.Is(err, disk.ErrCrashed) {
			t.Fatalf("statement %q failed with a non-crash error: %v", q, err)
		}
		if !db.Store().Crashed() {
			t.Fatal("crash error surfaced but the store is not poisoned")
		}
		return acked, true
	}
	return acked, false
}

// tortureConfig is a condition the crash workload runs under. hold
// sets it up on a fresh DB and returns what ends it, which the oracle
// calls after its replay so that its version GC catches up.
type tortureConfig struct {
	name string
	hold func(t *testing.T, db *DB) (release func())
}

var tortureConfigs = []tortureConfig{
	{"", func(*testing.T, *DB) func() { return func() {} }},
	// One snapshot, taken before the first statement, is open across
	// the whole workload: no deleted record leaves its page.
	{"reader", func(t *testing.T, db *DB) func() {
		tx, err := db.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
	}},
	// The version GC does not run until after the crash.
	{"gc-held", func(t *testing.T, db *DB) func() {
		db.gcHeld = true
		return func() { db.gcHeld = false; db.runGC() }
	}},
}

// tortureOracle replays the first p workload statements under cfg on a
// fresh fault-free store, ends cfg, and images the result.
func tortureOracle(t *testing.T, cfg tortureConfig, p int) map[string][]string {
	t.Helper()
	db := diskDB(t, disk.NewMemFS())
	release := cfg.hold(t, db)
	for _, q := range tortureWorkload[:p] {
		mustExec(t, db, q)
	}
	release()
	return contentSnapshot(t, db)
}

// TestCrashRecoveryTorture is the acceptance gate: for each condition
// (tortureConfigs), each crash point (WAL append, WAL sync, checkpoint
// page write, torn page write) and every ordinal k until the schedule
// runs clean, kill the store mid-workload, reopen, and require the
// recovered state to be identical to a serial oracle replay of the
// committed prefix. The tolerance is exactly one statement: a crash
// after the commit record is durable but before the acknowledgment
// means acked ≤ committed ≤ acked+1.
func TestCrashRecoveryTorture(t *testing.T) {
	crashPoints := []struct {
		name string
		op   FaultOp
		torn bool
	}{
		{"wal-append", FaultWALAppend, false},
		{"wal-sync", FaultWALSync, false},
		{"page-write", FaultPageWrite, false},
		{"torn-page", FaultPageWrite, true},
	}
	for _, cfg := range tortureConfigs {
		oracles := map[int]map[string][]string{}
		oracle := func(p int) map[string][]string {
			if s, ok := oracles[p]; ok {
				return s
			}
			s := tortureOracle(t, cfg, p)
			oracles[p] = s
			return s
		}
		for _, cp := range crashPoints {
			name := cp.name
			if cfg.name != "" {
				name = cfg.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				fired := 0
				for k := int64(0); k < 512; k++ {
					fs := disk.NewMemFS()
					db := diskDB(t, fs)
					cfg.hold(t, db)
					// Empty Table matches every table — including the
					// commit and DDL records the store logs without one.
					db.InjectFaults(&Fault{Op: cp.op, After: k, Crash: true, Torn: cp.torn})
					acked, crashed := runTortureWorkload(t, db)
					if !crashed {
						if acked != len(tortureWorkload) {
							t.Fatalf("k=%d: clean run acked %d/%d statements", k, acked, len(tortureWorkload))
						}
						if fired == 0 {
							t.Fatalf("%s fault never fired", cp.op)
						}
						return // schedule exhausted: every ordinal covered
					}
					fired++

					// The machine dies: all unsynced state vanishes.
					fs.Crash()
					rec := diskDB(t, fs)
					got := contentSnapshot(t, rec)
					if !reflect.DeepEqual(got, oracle(acked)) && !reflect.DeepEqual(got, oracle(acked+1)) {
						t.Fatalf("%s k=%d: recovered state matches neither oracle(%d) nor oracle(%d):\ngot: %v\no%d: %v\no%d: %v",
							cp.op, k, acked, acked+1, got, acked, oracle(acked), acked+1, oracle(acked+1))
					}
					checkIndexConsistency(t, rec)
					if n := rec.Faults(); n != nil && n.OpenIterators() != 0 {
						t.Fatalf("k=%d: %d iterators leaked across recovery", k, n.OpenIterators())
					}
					// The recovered store must be fully usable.
					if acked >= 3 { // items exists
						mustExec(t, rec, `INSERT INTO items VALUES (9000, 1, 'post')`)
						res := mustExec(t, rec, `SELECT tag FROM items WHERE id = 9000`)
						if len(res.Rows) != 1 {
							t.Fatalf("k=%d: post-recovery statement lost: %v", k, res.Rows)
						}
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("k=%d: close recovered db: %v", k, err)
					}
				}
				t.Fatalf("%s crash schedule not exhausted after 512 ordinals", cp.op)
			})
		}
	}
}

// TestCrashedStoreRefusesWork: after a crash fault poisons the store,
// every further statement fails fast with ErrCrashed until reopen.
func TestCrashedStoreRefusesWork(t *testing.T) {
	fs := disk.NewMemFS()
	db := diskDB(t, fs)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	db.InjectFaults(&Fault{Op: FaultWALAppend, Crash: true})
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`, nil); err == nil {
		t.Fatal("armed crash fault did not fire")
	}
	if !db.Store().Crashed() {
		t.Fatal("store not poisoned")
	}
	db.ClearFaults()
	if _, err := db.Exec(`INSERT INTO t VALUES (2)`, nil); !errors.Is(err, disk.ErrCrashed) {
		t.Fatalf("statement on crashed store: %v, want ErrCrashed", err)
	}
	// SELECTs don't touch the WAL and still serve from the cache/pool —
	// matching a real database that stays up read-only after log loss is
	// detected? No: the whole store is poisoned, but reads need no
	// statement bracket. The contract is only that mutations fail.
	fs.Crash()
	db2 := diskDB(t, fs)
	mustExec(t, db2, `INSERT INTO t VALUES (3)`)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteSurvivesCrashWithSnapshotOpen: an acknowledged DELETE is
// durable while an open snapshot holds the version GC back, that is,
// while the deleted record is still on its page. The DELETE logs a
// tombstone in its own statement's WAL group, and recovery reaps it.
// On OSFS the crash is a process kill: the DB is abandoned unclosed.
func TestDeleteSurvivesCrashWithSnapshotOpen(t *testing.T) {
	run := func(t *testing.T, dir string, fs disk.FS, crash func()) {
		open := func() *DB {
			db := Open(withDataFS(dir, fs, diskOpts), WithDefaultStorage("DISK"))
			if err := db.OpenErr(); err != nil {
				t.Fatal(err)
			}
			return db
		}
		check := func(db *DB, when string) {
			t.Helper()
			res := mustExec(t, db, `SELECT x FROM t`)
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
				t.Fatalf("%s: SELECT x FROM t = %v, want [[2]]", when, res.Rows)
			}
		}
		db := open()
		mustExec(t, db, `CREATE TABLE t (x INT)`)
		mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
		if err := db.Store().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res, err := tx.Exec(`SELECT x FROM t`, nil); err != nil || len(res.Rows) != 2 {
			t.Fatalf("snapshot read: %v, %v", res, err)
		}
		mustExec(t, db, `DELETE FROM t WHERE x = 1`)
		check(db, "before the crash")
		crash()
		rec := open()
		check(rec, "after recovery")
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("MemFS", func(t *testing.T) {
		fs := disk.NewMemFS()
		run(t, "data", fs, fs.Crash)
	})
	t.Run("OSFS", func(t *testing.T) { run(t, t.TempDir(), disk.OSFS{}, func() {}) })
}

// TestVersionGCWritesItsOwnWALGroup: the version GC's page deletes go
// in a WAL group of their own, logged without an fsync (the tombstone
// each one reaps is durable already), and a GC pass that reaps nothing
// writes nothing.
func TestVersionGCWritesItsOwnWALGroup(t *testing.T) {
	db := Open(withDataFS("data", disk.NewMemFS(), disk.Options{PageSize: 512, PoolPages: 64}), WithDefaultStorage("DISK"))
	mustExec(t, db, `CREATE TABLE t (x INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	step := func(q string, records, syncs int64) {
		t.Helper()
		before := db.Store().Stats()
		mustExec(t, db, q)
		after := db.Store().Stats()
		if r, s := after.WALRecords-before.WALRecords, after.WALSyncs-before.WALSyncs; r != records || s != syncs {
			t.Fatalf("%s: %d WAL records and %d fsyncs, want %d and %d", q, r, s, records, syncs)
		}
	}
	step(`INSERT INTO t VALUES (3)`, 2, 1)        // insert, commit; the GC only freezes
	step(`DELETE FROM t WHERE x = 1`, 4, 1)       // tombstone, commit; the GC's delete, commit
	step(`UPDATE t SET x = 20 WHERE x = 2`, 2, 1) // update, commit
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTableSurvivesCrashBeforeCheckpoint: a table created through
// the default storage manager, with no checkpoint since, comes back
// from a crash as a DISK table with its rows. Recovery replays its
// CREATE TABLE once every option has run, so the empty USING clause
// resolves against the default WithDefaultStorage sets, as it did when
// the statement first ran.
func TestCreateTableSurvivesCrashBeforeCheckpoint(t *testing.T) {
	fs := disk.NewMemFS()
	open := func() *DB {
		db := Open(withDataFS("data", fs, disk.Options{}), WithDefaultStorage("DISK"))
		if err := db.OpenErr(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	mustExec(t, db, `CREATE TABLE t (x INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	fs.Crash()
	rec := open()
	if tbl, ok := rec.Catalog().Table("t"); !ok || tbl.SM != disk.ManagerName {
		t.Fatalf("recovered table t: %+v, want one under %s", tbl, disk.ManagerName)
	}
	if res := mustExec(t, rec, `SELECT x FROM t ORDER BY x`); len(res.Rows) != 2 {
		t.Fatalf("recovered rows %v, want [[1] [2]]", res.Rows)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
