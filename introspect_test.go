package starburst

// Introspection tests: the SYS virtual tables end to end through the
// normal query pipeline, wait-event profiling and per-statement
// attribution, statement span export, write rejection, and fault- and
// cancel-safety mid-scan.

import (
	"bytes"
	"context"
	gosql "database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
)

// sysTables lists every SYS relation; tests that sweep the schema use
// it so a newly added table cannot dodge the safety gates.
var sysTables = []string{
	"SYS.STATEMENTS", "SYS.SESSIONS", "SYS.PLAN_CACHE",
	"SYS.BUFPOOL", "SYS.WAL", "SYS.METRICS", "SYS.WAITS",
}

// sysDB opens a durable DB with a plan cache, an open session, and a
// little executed work, so every SYS table has at least one row.
func sysDB(t testing.TB) (*DB, *Session) {
	t.Helper()
	db := Open(WithDataDir(t.TempDir()), WithDefaultStorage("DISK"), WithPlanCache(8))
	if err := db.OpenErr(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE parts (partno INT, qty INT, type STRING)`)
	mustExec(t, db, `INSERT INTO parts VALUES (1, 10, 'CPU'), (2, 0, 'DISK'), (3, 7, 'CPU')`)
	sess := db.NewSession()
	t.Cleanup(sess.Close)
	for i := 0; i < 2; i++ { // twice: the second run hits the plan cache
		if _, err := sess.Query(context.Background(), `SELECT type, SUM(qty) FROM parts GROUP BY type`, nil); err != nil {
			t.Fatal(err)
		}
	}
	return db, sess
}

func TestSysStatementsThroughPipeline(t *testing.T) {
	db, _ := sysDB(t)

	// The ISSUE's marquee query: ordinary SQL over live engine state.
	res := mustExec(t, db,
		`SELECT name, kind, calls, rows, total_ns FROM SYS.STATEMENTS ORDER BY total_ns DESC LIMIT 10`)
	if len(res.Rows) == 0 {
		t.Fatal("SYS.STATEMENTS is empty")
	}
	var prev int64 = 1<<63 - 1
	byName := map[string][]Value{}
	for _, r := range res.Rows {
		if ns := r[4].Int(); ns > prev {
			t.Fatalf("ORDER BY total_ns DESC violated: %d after %d", ns, prev)
		} else {
			prev = ns
		}
		byName[r[0].Str()] = r
	}
	// A literal INSERT is named by its shape: each lifted VALUES cell
	// shows as its kind.
	ins := byName[`INSERT INTO PARTS VALUES (?I, ?I, ?S), (?I, ?I, ?S), (?I, ?I, ?S)`]
	if ins == nil {
		t.Fatalf("INSERT not in SYS.STATEMENTS: %v", byName)
	}
	if got := ins[1].Str(); got != "INSERT" {
		t.Errorf("kind = %q, want INSERT", got)
	}
	if got := ins[3].Int(); got != 3 {
		t.Errorf("rows = %d, want 3", got)
	}
	sel := byName[`SELECT TYPE, SUM(QTY) FROM PARTS GROUP BY TYPE`]
	if sel == nil || sel[2].Int() != 2 {
		t.Fatalf("repeated SELECT not aggregated to calls=2: %v", sel)
	}

	// Errors are counted against the normalized statement, and the
	// failing statement itself becomes queryable.
	if _, err := db.Exec(`SELECT nope FROM parts`, nil); err == nil {
		t.Fatal("want error")
	}
	res = mustExec(t, db, `SELECT errors FROM SYS.STATEMENTS WHERE name = 'SELECT NOPE FROM PARTS'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("failing statement not recorded with errors=1: %v", res.Rows)
	}

	// Plan-cache hits surface per statement.
	res = mustExec(t, db,
		`SELECT plan_cache_hits FROM SYS.STATEMENTS WHERE name = 'SELECT TYPE, SUM(QTY) FROM PARTS GROUP BY TYPE'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() < 1 {
		t.Fatalf("plan_cache_hits not recorded: %v", res.Rows)
	}
}

func TestSysSessionsAndPlanCache(t *testing.T) {
	db, sess := sysDB(t)

	res := mustExec(t, db, fmt.Sprintf(
		`SELECT state, dop, statements FROM SYS.SESSIONS WHERE id = %d`, sess.ID()))
	if len(res.Rows) != 1 {
		t.Fatalf("session %d not in SYS.SESSIONS: %v", sess.ID(), res.Rows)
	}
	if got := res.Rows[0][0].Str(); got != "idle" {
		t.Errorf("state = %q, want idle", got)
	}
	if got := res.Rows[0][2].Int(); got != 2 {
		t.Errorf("statements = %d, want 2", got)
	}

	// The cached SELECT appears with its hit count.
	res = mustExec(t, db,
		`SELECT name, kind, hits FROM SYS.PLAN_CACHE WHERE name = 'SELECT TYPE, SUM(QTY) FROM PARTS GROUP BY TYPE'`)
	if len(res.Rows) != 1 || res.Rows[0][2].Int() < 1 {
		t.Fatalf("cached plan missing or hitless: %v", res.Rows)
	}

	// Close unregisters; the row disappears on the next scan.
	sess.Close()
	res = mustExec(t, db, fmt.Sprintf(`SELECT id FROM SYS.SESSIONS WHERE id = %d`, sess.ID()))
	if len(res.Rows) != 0 {
		t.Fatalf("closed session still visible: %v", res.Rows)
	}
}

// TestSysSessionsSeesEveryHandle: SYS.SESSIONS accounts for a session's
// statements whichever handle ran them — ad hoc, a Session.Prepare'd
// Stmt, or a database/sql prepared statement (whose connection is a
// session). Five runs count five, and a run in flight shows the session
// active with its SQL.
func TestSysSessionsSeesEveryHandle(t *testing.T) {
	db, _ := sysDB(t)
	ctx := context.Background()

	// STALL(x) parks the statement evaluating it on the gate armed in
	// gates, if any, until the test releases it.
	type gate struct{ entered, release chan struct{} }
	gates := make(chan gate, 1)
	if err := db.RegisterScalarFunc(&ScalarFunc{
		Name: "STALL", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []TypeID) (TypeID, error) { return args[0], nil },
		Eval: func(args []Value) (Value, error) {
			select {
			case g := <-gates:
				close(g.entered)
				<-g.release
			default:
			}
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	sessionIDs := func() map[int64]bool {
		ids := map[int64]bool{}
		for _, r := range mustExec(t, db, `SELECT id FROM SYS.SESSIONS`).Rows {
			ids[r[0].Int()] = true
		}
		return ids
	}

	// A handle opens a session and returns how to ready a statement on it
	// (yielding how to run it) and the session's SYS.SESSIONS id.
	type ready func(q string) (run func(context.Context) error)
	handles := map[string]func(t *testing.T) (ready, func() int64){
		"Session.Query": func(t *testing.T) (ready, func() int64) {
			sess := db.NewSession()
			t.Cleanup(sess.Close)
			return func(q string) func(context.Context) error {
				return func(ctx context.Context) error {
					_, err := sess.Query(ctx, q, nil)
					return err
				}
			}, sess.ID
		},
		"Session.Prepare": func(t *testing.T) (ready, func() int64) {
			sess := db.NewSession()
			t.Cleanup(sess.Close)
			return func(q string) func(context.Context) error {
				st, err := sess.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				return func(ctx context.Context) error {
					_, err := st.Query(ctx, nil)
					return err
				}
			}, sess.ID
		},
		"database/sql Prepare": func(t *testing.T) (ready, func() int64) {
			RegisterDSN(t.Name(), db)
			sdb, err := gosql.Open(DriverName, t.Name())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sdb.Close() })
			sdb.SetMaxOpenConns(1) // one connection, so one session
			before := sessionIDs()
			return func(q string) func(context.Context) error {
					st, err := sdb.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					return func(ctx context.Context) error {
						rows, err := st.QueryContext(ctx)
						if err != nil {
							return err
						}
						return rows.Close()
					}
				}, func() int64 {
					for id := range sessionIDs() {
						if !before[id] {
							return id
						}
					}
					t.Fatal("the driver connection opened no session")
					return 0
				}
		},
	}
	for name, open := range handles {
		t.Run(name, func(t *testing.T) {
			prep, id := open(t)
			count := prep(`SELECT COUNT(*) FROM parts`)
			const stallSQL = `SELECT STALL(partno) FROM parts`
			stall := prep(stallSQL)
			for i := 0; i < 5; i++ {
				if err := count(ctx); err != nil {
					t.Fatal(err)
				}
			}
			row := func() Row {
				res := mustExec(t, db, fmt.Sprintf(
					`SELECT state, sql, statements FROM SYS.SESSIONS WHERE id = %d`, id()))
				if len(res.Rows) != 1 {
					t.Fatalf("session not in SYS.SESSIONS: %v", res.Rows)
				}
				return res.Rows[0]
			}
			if r := row(); r[0].Str() != "idle" || r[2].Int() != 5 {
				t.Fatalf("after 5 runs: state %q statements %d, want idle and 5", r[0].Str(), r[2].Int())
			}

			g := gate{make(chan struct{}), make(chan struct{})}
			gates <- g
			done := make(chan error, 1)
			go func() { done <- stall(ctx) }()
			<-g.entered
			r := row()
			close(g.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if r[0].Str() != "active" || r[1].IsNull() || r[1].Str() != stallSQL || r[2].Int() != 6 {
				t.Fatalf("during a run: %v, want active, %q, 6", r, stallSQL)
			}
		})
	}
}

func TestSysWaitsJoinStatements(t *testing.T) {
	db, _ := sysDB(t)

	// The durable INSERT must have waited on the WAL; the join
	// attributes that wait to the statement that suffered it.
	res := mustExec(t, db, `SELECT s.name, w.event, w.count, w.total_ns
		FROM SYS.WAITS w, SYS.STATEMENTS s
		WHERE w.stmt = s.name AND w.event = 'WAL_APPEND'`)
	found := false
	for _, r := range res.Rows {
		if strings.HasPrefix(r[0].Str(), "INSERT INTO PARTS") {
			found = true
			if r[2].Int() < 1 {
				t.Errorf("WAL_APPEND count = %d, want >= 1", r[2].Int())
			}
		}
	}
	if !found {
		t.Fatalf("no WAL_APPEND wait attributed to the INSERT:\n%v", res.Rows)
	}

	// DB-wide profile rows carry a NULL STMT and cover at least the
	// statement lock, which every statement acquires.
	res = mustExec(t, db, `SELECT event, count FROM SYS.WAITS WHERE stmt IS NULL`)
	events := map[string]int64{}
	for _, r := range res.Rows {
		events[r[0].Str()] = r[1].Int()
	}
	for _, want := range []string{"ADMIN_LATCH", "WAL_APPEND", "WAL_SYNC"} {
		if events[want] < 1 {
			t.Errorf("global profile missing %s: %v", want, events)
		}
	}
}

func TestSysMetricsAggregate(t *testing.T) {
	db, _ := sysDB(t)

	res := mustExec(t, db, `SELECT kind, COUNT(name) FROM SYS.METRICS GROUP BY kind ORDER BY kind`)
	kinds := map[string]int64{}
	for _, r := range res.Rows {
		kinds[r[0].Str()] = r[1].Int()
	}
	for _, want := range []string{"counter", "gauge", "histogram_bucket"} {
		if kinds[want] < 1 {
			t.Errorf("no %s rows in SYS.METRICS: %v", want, kinds)
		}
	}

	// SYS.METRICS and the Prometheus exposition read the same registry:
	// the statements counter must agree with a SQL aggregate over it.
	res = mustExec(t, db,
		`SELECT SUM(value) FROM SYS.METRICS WHERE name = 'starburst_statements_total'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Float() < 1 {
		t.Fatalf("starburst_statements_total missing from SYS.METRICS: %v", res.Rows)
	}
	var buf bytes.Buffer
	if _, err := db.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP starburst_statements_total ") {
		t.Error("engine metrics exposition lacks # HELP for starburst_statements_total")
	}
}

func TestSysRejectsWrites(t *testing.T) {
	db, _ := sysDB(t)
	cases := []struct{ sql, op string }{
		{`INSERT INTO SYS.STATEMENTS (name) VALUES ('x')`, "INSERT"},
		{`UPDATE SYS.STATEMENTS SET calls = 0`, "UPDATE"},
		{`DELETE FROM SYS.WAITS`, "DELETE"},
		{`CREATE TABLE SYS.MINE (a INT)`, "CREATE TABLE"},
		{`DROP TABLE SYS.STATEMENTS`, "DROP TABLE"},
		{`CREATE INDEX six ON SYS.STATEMENTS (name)`, "CREATE INDEX"},
		{`CREATE VIEW SYS.V AS SELECT name FROM SYS.STATEMENTS`, "CREATE VIEW"},
		{`ANALYZE SYS.STATEMENTS`, "ANALYZE"},
	}
	for _, c := range cases {
		_, err := db.Exec(c.sql, nil)
		var soe *catalog.SystemObjectError
		if !errors.As(err, &soe) {
			t.Errorf("%s: want *catalog.SystemObjectError, got %v", c.sql, err)
			continue
		}
		if soe.Op != c.op {
			t.Errorf("%s: rejected op = %q, want %q", c.sql, soe.Op, c.op)
		}
	}
	// The engine is unharmed: SYS still scans, user DML still runs.
	mustExec(t, db, `SELECT name FROM SYS.STATEMENTS`)
	mustExec(t, db, `INSERT INTO parts VALUES (4, 1, 'RAM')`)
}

func TestSysScanFaultAndCancelSafety(t *testing.T) {
	db, _ := sysDB(t)
	db.InjectFaults() // attach the injector (and its iterator tracking)

	for _, table := range sysTables {
		// A scan fault on the first row surfaces as a *FaultError and
		// leaks nothing, for every SYS table.
		db.InjectFaults(&Fault{Table: table, Op: FaultScan, Err: "sysfault"})
		_, err := db.Exec(`SELECT COUNT(*) FROM `+table, nil)
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Table != table {
			t.Fatalf("%s: want *FaultError for the table, got %v", table, err)
		}
		if n := db.Faults().OpenIterators(); n != 0 {
			t.Fatalf("%s: %d iterators leaked after fault", table, n)
		}
		db.ClearFaults()
		// The table scans clean again afterwards.
		mustExec(t, db, `SELECT COUNT(*) FROM `+table)
	}

	// Cancellation mid-scan: a latency fault stalls the SYS scan and the
	// context abort must cut it short without leaking iterators.
	db.InjectFaults(&Fault{Table: "SYS.METRICS", Op: FaultScan, Latency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.Query(ctx, `SELECT name FROM SYS.METRICS`, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if n := db.Faults().OpenIterators(); n != 0 {
		t.Fatalf("%d iterators leaked after cancel", n)
	}
	db.ClearFaults()

	// The tuple budget trips mid-scan of virtual relations too.
	setLimits(db, Limits{MaxRows: 100})
	_, err = db.Exec(`SELECT COUNT(a.name) FROM SYS.METRICS a, SYS.METRICS b, SYS.METRICS c`, nil)
	var re *ResourceError
	if !errors.As(err, &re) || re.Budget != "rows" {
		t.Fatalf("want ResourceError(rows), got %v", err)
	}
	if n := db.Faults().OpenIterators(); n != 0 {
		t.Fatalf("%d iterators leaked after budget trip", n)
	}
	setLimits(db, Limits{})
	mustExec(t, db, `SELECT COUNT(name) FROM SYS.METRICS`)
}

func TestSpanExportStructure(t *testing.T) {
	db := robustDB(t)
	var mu sync.Mutex
	var spans []*StatementSpan
	db.SetSpanExporter(func(sp *StatementSpan) {
		mu.Lock()
		spans = append(spans, sp)
		mu.Unlock()
	})
	mustExec(t, db, `SELECT i.id FROM items i, orders o WHERE i.id = o.item`)
	if _, err := db.Exec(`SELECT id FROM nowhere`, nil); err == nil {
		t.Fatal("want error")
	}
	db.SetSpanExporter(nil)
	mustExec(t, db, `SELECT id FROM items`) // after clearing: not exported

	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	ok, bad := spans[0], spans[1]
	if ok.SQL == "" || ok.Kind != "SELECT" || ok.Error != "" || ok.TotalNanos <= 0 {
		t.Fatalf("root span malformed: %+v", ok)
	}
	if bad.Error == "" {
		t.Fatalf("failed statement span carries no error: %+v", bad)
	}

	// The successful span holds phase children, an operator subtree with
	// row counts, and its wait annotations.
	kinds := map[string]int{}
	var rowsAttr bool
	var walk func(sp *Span)
	walk = func(sp *Span) {
		kinds[sp.Kind]++
		if sp.Kind == "operator" && sp.Attrs["rows"] != "" {
			rowsAttr = true
		}
		if sp.DurNanos < 0 {
			t.Errorf("negative duration on span %s", sp.Name)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(ok.Root)
	if kinds["phase"] < 4 || kinds["operator"] < 2 || kinds["call"] < 3 {
		t.Fatalf("span tree too sparse: %v", kinds)
	}
	if !rowsAttr {
		t.Fatal("no operator span carries a rows attribute")
	}
	lock := false
	for _, w := range ok.Root.Waits {
		if w.Event == "ADMIN_LATCH" && w.Count >= 1 {
			lock = true
		}
	}
	if !lock {
		t.Fatalf("root span waits missing ADMIN_LATCH: %+v", ok.Root.Waits)
	}

	// The wire format round-trips as one JSON document.
	data, err := ok.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("span JSON invalid: %v", err)
	}
	if m["sql"] != ok.SQL {
		t.Fatalf("JSON sql = %v, want %q", m["sql"], ok.SQL)
	}
}

func TestWaitProfileRecordsBlockingSites(t *testing.T) {
	db, _ := sysDB(t)
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO parts VALUES (%d, %d, 'X')`, 100+i, i))
	}
	stats := map[string]WaitStat{}
	for _, st := range db.WaitStats() {
		stats[st.Event.String()] = st
	}
	for _, want := range []string{"WAL_APPEND", "WAL_SYNC", "ADMIN_LATCH"} {
		st, ok := stats[want]
		if !ok || st.Count < 1 {
			t.Errorf("profile missing %s: %v", want, stats)
			continue
		}
		var bucketed int64
		for _, b := range st.Buckets {
			bucketed += b
		}
		if bucketed != st.Count {
			t.Errorf("%s: histogram holds %d obs, count says %d", want, bucketed, st.Count)
		}
		if st.MaxNanos > st.Nanos {
			t.Errorf("%s: max %d > total %d", want, st.MaxNanos, st.Nanos)
		}
	}
}

// TestSlowQueryLogWaits: at DOP 4 a slow statement emits exactly one
// record, and the record names its top wait events. Run under -race by
// `make introspect`.
func TestSlowQueryLogWaits(t *testing.T) {
	db := robustDB(t)
	setDOP(db, 4)
	var buf bytes.Buffer
	var mu sync.Mutex
	db.SetSlowQueryLog(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	db.SetSlowQueryThreshold(time.Nanosecond)
	mustExec(t, db, `SELECT i.tag, SUM(o.n) FROM items i, orders o WHERE i.id = o.item GROUP BY i.tag`)
	db.SetSlowQueryThreshold(0)
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if got := strings.Count(out, "slow query"); got != 1 {
		t.Fatalf("%d slow records, want exactly 1:\n%s", got, out)
	}
	if !strings.Contains(out, "wait1.event=") {
		t.Fatalf("slow record names no wait events:\n%s", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestSysConcurrentScans: SYS tables are scanned while sessions mutate
// the very state being scanned, at DOP 4. Run under -race by
// `make introspect`; the invariant is simply no race, no error, no
// deadlock (SYS sources never take the statement lock).
func TestSysConcurrentScans(t *testing.T) {
	db, _ := sysDB(t)
	setDOP(db, 4)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 15; i++ {
				if _, err := sess.Query(context.Background(),
					`SELECT type, SUM(qty) FROM parts GROUP BY type`, nil); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				for _, q := range []string{
					`SELECT name, calls FROM SYS.STATEMENTS`,
					`SELECT stmt, event, count FROM SYS.WAITS`,
					`SELECT id, state FROM SYS.SESSIONS`,
				} {
					if _, err := db.Exec(q, nil); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
