package starburst

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file tests intra-query parallelism end to end: plan shape
// (exchange insertion and its cost gate), result equivalence between
// serial and parallel execution over the random query corpus, exact
// ordering for ORDER BY, early termination for LIMIT, the fault /
// cancellation / budget matrix under concurrent workers, and the
// parallel observability surface. The whole file runs under -race in
// CI, which is half the point.

// genParallelDB is genDB grown past the optimizer's page gate: the
// equivalence corpus tables get enough rows to span multiple simulated
// pages so exchanges are actually inserted (with the threshold lowered
// to 1).
func genParallelDB(t testing.TB, seed int64, opts ...Option) *DB {
	t.Helper()
	db := genDB(t, seed, opts...)
	rng := rand.New(rand.NewSource(seed * 31))
	val := func(limit int) string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("%d", rng.Intn(limit))
	}
	str := func() string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("'s%d'", rng.Intn(4))
	}
	for i := 0; i < 280; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO ta VALUES (%s, %s, %s)", val(10), val(20), str()))
	}
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO tb VALUES (%s, %s)", val(10), val(20)))
	}
	for i := 0; i < 140; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO tc VALUES (%s, %s)", val(10), str()))
	}
	mustExec(t, db, "ANALYZE ta")
	mustExec(t, db, "ANALYZE tb")
	mustExec(t, db, "ANALYZE tc")
	db.opt.SetParallelThreshold(1)
	return db
}

// runAtDOP runs one query at the given DOP and returns the result.
func runAtDOP(t *testing.T, db *DB, dop int, q string) *Result {
	t.Helper()
	setDOP(db, dop)
	res, err := db.Exec(q, nil)
	if err != nil {
		t.Fatalf("dop=%d: %s: %v", dop, q, err)
	}
	return res
}

// explainText renders EXPLAIN output as one string.
func explainText(t *testing.T, db *DB, q string) string {
	t.Helper()
	res, err := db.Exec("EXPLAIN "+q, nil)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", q, err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestParallelPlanShape checks exchange insertion and its gates.
func TestParallelPlanShape(t *testing.T) {
	db := genParallelDB(t, 7)

	setDOP(db, 4)
	plan := explainText(t, db, "SELECT x.k, x.v FROM ta x WHERE x.v < 10")
	if !strings.Contains(plan, "GATHER") {
		t.Fatalf("parallel-eligible scan got no GATHER:\n%s", plan)
	}
	if !strings.Contains(plan, "dop=4") {
		t.Fatalf("GATHER does not render dop:\n%s", plan)
	}
	if n := strings.Count(plan, "GATHER"); n != 1 {
		t.Fatalf("want exactly 1 GATHER, got %d:\n%s", n, plan)
	}

	// ORDER BY: the gather must carry merge keys (order-preserving).
	plan = explainText(t, db, "SELECT x.k, x.v FROM ta x ORDER BY x.k")
	if !strings.Contains(plan, "GATHER merge") {
		t.Fatalf("ordered gather missing merge keys:\n%s", plan)
	}
	if !strings.Contains(plan, "SORT") {
		t.Fatalf("parallel ORDER BY lost its SORT:\n%s", plan)
	}

	// GROUP BY: repartition below the per-worker GROUP.
	plan = explainText(t, db, "SELECT k, COUNT(*) FROM ta GROUP BY k")
	if !strings.Contains(plan, "GATHER") || !strings.Contains(plan, "REPART") {
		t.Fatalf("parallel GROUP BY missing GATHER/REPART:\n%s", plan)
	}

	// DML must never parallelize.
	plan = explainText(t, db, "UPDATE ta SET v = 0 WHERE k = 1")
	if strings.Contains(plan, "GATHER") {
		t.Fatalf("DML plan got an exchange:\n%s", plan)
	}

	// Correlated subqueries stay serial — per-worker inner-result caches
	// are a cost exchange placement does not price: no exchange.
	plan = explainText(t, db, "SELECT x.k FROM ta x WHERE EXISTS (SELECT 1 FROM tb WHERE tb.k = x.k)")
	if strings.Contains(plan, "GATHER") {
		t.Fatalf("subquery plan got an exchange:\n%s", plan)
	}

	// DOP=1 inserts nothing.
	setDOP(db, 1)
	plan = explainText(t, db, "SELECT x.k, x.v FROM ta x WHERE x.v < 10")
	if strings.Contains(plan, "GATHER") {
		t.Fatalf("DOP=1 plan got an exchange:\n%s", plan)
	}

	// Small tables stay under the cardinality threshold.
	setDOP(db, 4)
	db.opt.SetParallelThreshold(0) // default 512 again
	plan = explainText(t, db, "SELECT x.k FROM tc x")
	if strings.Contains(plan, "GATHER") {
		t.Fatalf("sub-threshold scan got an exchange:\n%s", plan)
	}
	db.opt.SetParallelThreshold(1)
}

// TestParallelEquivalenceCorpus runs the random equivalence corpus at
// DOP=1 and DOP=4 and requires identical result sets.
func TestParallelEquivalenceCorpus(t *testing.T) {
	db := genParallelDB(t, 11)
	gen := &queryGen{rng: rand.New(rand.NewSource(23))}
	sawParallel := false
	for i := 0; i < 60; i++ {
		q := gen.query()
		if i%7 == 3 {
			q = gen.lateralQuery()
		}
		serial := runAtDOP(t, db, 1, q)
		par := runAtDOP(t, db, 4, q)
		if canonical(serial) != canonical(par) {
			t.Fatalf("DOP=4 diverged on %s\nserial: %s\nparallel: %s",
				q, canonical(serial), canonical(par))
		}
		if strings.Contains(explainText(t, db, q), "GATHER") {
			sawParallel = true
		}
	}
	if !sawParallel {
		t.Fatal("corpus never produced a parallel plan; test is vacuous")
	}
}

// TestParallelAggregates covers the repartitioned operators: GROUP BY,
// scalar aggregates, and DISTINCT.
func TestParallelAggregates(t *testing.T) {
	db := genParallelDB(t, 13)
	queries := []string{
		"SELECT k, COUNT(*), SUM(v) FROM ta GROUP BY k",
		"SELECT k, MIN(v), MAX(v) FROM tb GROUP BY k",
		"SELECT COUNT(*) FROM ta",
		"SELECT SUM(v), COUNT(v) FROM ta WHERE k IS NOT NULL",
		"SELECT DISTINCT k FROM ta",
		"SELECT DISTINCT k, v FROM tb",
		"SELECT x.k, COUNT(*) FROM ta x, tb y WHERE x.k = y.k GROUP BY x.k",
	}
	for _, q := range queries {
		serial := runAtDOP(t, db, 1, q)
		par := runAtDOP(t, db, 4, q)
		if canonical(serial) != canonical(par) {
			t.Errorf("DOP=4 diverged on %s\nserial: %s\nparallel: %s",
				q, canonical(serial), canonical(par))
		}
	}
}

// TestParallelOrderByExactOrder requires parallel ORDER BY to
// reproduce the serial ordering row for row, not just the same set:
// the gather's sorted merge must be deterministic even for duplicate
// keys (full-row tiebreak).
func TestParallelOrderByExactOrder(t *testing.T) {
	db := genParallelDB(t, 17)
	queries := []string{
		"SELECT x.k, x.v FROM ta x ORDER BY x.k",
		"SELECT x.k, x.v, x.s FROM ta x ORDER BY x.k DESC, x.v",
		"SELECT x.k, y.v FROM ta x, tb y WHERE x.k = y.k ORDER BY x.k, y.v DESC",
		"SELECT x.v FROM ta x WHERE x.v < 15 ORDER BY x.v",
	}
	for _, q := range queries {
		serial := runAtDOP(t, db, 1, q)
		par := runAtDOP(t, db, 4, q)
		if len(serial.Rows) != len(par.Rows) {
			t.Fatalf("%s: row count %d vs %d", q, len(serial.Rows), len(par.Rows))
		}
		for i := range serial.Rows {
			if datum.RowKey(serial.Rows[i]) != datum.RowKey(par.Rows[i]) {
				t.Fatalf("%s: row %d differs: %v vs %v", q, i, serial.Rows[i], par.Rows[i])
			}
		}
	}
}

// TestParallelLimit checks LIMIT semantics and early termination above
// an exchange: exact row counts, exact rows for ORDER BY + LIMIT, and a
// LIMIT that takes from the GATHER below it only the rows it returns.
func TestParallelLimit(t *testing.T) {
	db := genParallelDB(t, 19)
	setDOP(db, 4)

	res, err := db.Exec("SELECT x.k FROM ta x LIMIT 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("LIMIT 7 returned %d rows", len(res.Rows))
	}
	// A constant limit caps the LIMIT node's estimate at k rows.
	if plan := explainText(t, db, "SELECT x.k FROM ta x LIMIT 7"); !strings.Contains(plan, "LIMIT  {rows=7 ") {
		t.Fatalf("LIMIT 7 estimate is not 7 rows:\n%s", plan)
	}

	serial := runAtDOP(t, db, 1, "SELECT x.k, x.v FROM ta x ORDER BY x.k, x.v LIMIT 11")
	par := runAtDOP(t, db, 4, "SELECT x.k, x.v FROM ta x ORDER BY x.k, x.v LIMIT 11")
	if len(par.Rows) != len(serial.Rows) {
		t.Fatalf("ORDER BY LIMIT: %d vs %d rows", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if datum.RowKey(serial.Rows[i]) != datum.RowKey(par.Rows[i]) {
			t.Fatalf("ORDER BY LIMIT row %d differs", i)
		}
	}

	// A LIMIT that pulled whole batches from the GATHER would read all
	// 320 rows of ta.
	setDOP(db, 4)
	for _, c := range []struct {
		q    string
		rows int
	}{
		{"SELECT x.k FROM ta x LIMIT 7", 7},
		{"SELECT x.k, x.v FROM ta x ORDER BY x.k, x.v LIMIT 11", 11},
	} {
		text := explainText(t, db, "ANALYZE "+c.q)
		gather := ""
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "GATHER") {
				gather = line
			}
		}
		if !strings.Contains(gather, fmt.Sprintf("(actual rows=%d ", c.rows)) {
			t.Fatalf("%s: want the GATHER at actual rows=%d:\n%s", c.q, c.rows, text)
		}
	}
}

// parallelEligibleQuery is used throughout the fault matrix: a
// scan-join the optimizer parallelizes on genParallelDB.
const parallelEligibleQuery = "SELECT x.k, x.v, y.v FROM ta x, tb y WHERE x.k = y.k AND x.v < 18"

// exchangeQueries are one statement per exchange shape on genParallelDB
// at DOP 4, each with the EXPLAIN text that shows the shape.
var exchangeQueries = []struct{ q, shape string }{
	{parallelEligibleQuery, "GATHER"},
	{"SELECT x.k, COUNT(*) FROM ta x GROUP BY x.k", "REPART"},
	{"SELECT DISTINCT x.v FROM ta x", "REPART"},
	{"SELECT x.k, x.v FROM ta x ORDER BY x.k, x.v", "GATHER merge"},
}

// checkExchangeShape fails unless q plans the given exchange shape.
func checkExchangeShape(t *testing.T, db *DB, q, shape string) {
	t.Helper()
	if plan := explainText(t, db, q); !strings.Contains(plan, shape) {
		t.Fatalf("%s: plan has no %s; the test is vacuous:\n%s", q, shape, plan)
	}
}

// checkExchangeWoundDown asserts that a statement left no exchange
// worker behind: the worker gauge reads 0 and the goroutine count falls
// back to what it was before the statement within two seconds.
func checkExchangeWoundDown(t *testing.T, db *DB, q string, goroutines int) {
	t.Helper()
	if g := db.Metrics().Gauge(MetricParallelWorkers).Value(); g != 0 {
		t.Fatalf("%s: leaked %d workers", q, g)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines 2s after the statement, %d before it", q, runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelFaultMatrix drives parallel plans through the PR-2
// robustness matrix: clean, faulted, cancelled, and budget-tripped.
// The cancelled, budget-tripped and timeout legs run every exchange
// shape: a plain GATHER, REPART under a GATHER, and an ordered GATHER.
func TestParallelFaultMatrix(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		db := genParallelDB(t, 37)
		serial := runAtDOP(t, db, 1, parallelEligibleQuery)
		par := runAtDOP(t, db, 4, parallelEligibleQuery)
		if canonical(serial) != canonical(par) {
			t.Fatal("clean parallel run diverged")
		}
	})

	t.Run("faulted-forces-serial", func(t *testing.T) {
		db := genParallelDB(t, 41)
		setDOP(db, 4)
		want := canonical(runAtDOP(t, db, 4, parallelEligibleQuery))
		// Compiled before the injector is attached, so it carries an
		// exchange over ta.
		compiled := preparedPlan(parallelEligibleQuery)(t, db)
		gathers := func() bool {
			t.Helper()
			return strings.Contains(explainText(t, db, parallelEligibleQuery), "GATHER")
		}

		// With an injector attached nothing is planned parallel — fault
		// schedules count operations deterministically — because a
		// fault-wrapped table cannot be split into page ranges.
		db.InjectFaults(&Fault{Table: "ta", Op: FaultScan, After: 50, Err: "boom"})
		if gathers() {
			t.Fatal("a plan over a fault-wrapped table carries an exchange")
		}
		if _, err := db.Exec(parallelEligibleQuery, nil); err == nil {
			t.Fatal("faulted scan did not surface an error")
		}
		db.ClearFaults()
		// Injector still attached (cleared): still planned serially, and
		// the serial plan produces the full result.
		if gathers() {
			t.Fatal("a plan under a cleared injector carries an exchange")
		}
		res, err := db.Exec(parallelEligibleQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(res) != want {
			t.Fatal("forced-serial run diverged")
		}
		// An exchange over the fault-wrapped table is refused at build
		// time rather than run serially.
		if _, err := runPlan(db, compiled, nil); err == nil || !strings.Contains(err.Error(), "page ranges") {
			t.Fatalf("GATHER over a fault-wrapped table: want the build error, got %v", err)
		}
		db.DetachFaults()
		if !gathers() {
			t.Fatal("no exchange planned after the injector was detached")
		}
		res, err = db.Exec(parallelEligibleQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(res) != want {
			t.Fatal("post-fault parallel run diverged")
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		db := genParallelDB(t, 43)
		setDOP(db, 4)
		for _, e := range exchangeQueries {
			checkExchangeShape(t, db, e.q, e.shape)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			before := runtime.NumGoroutine()
			_, err := db.Query(ctx, e.q, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: want context.Canceled, got %v", e.q, err)
			}
			checkExchangeWoundDown(t, db, e.q, before)
			// The DB stays usable.
			if _, err := db.Exec(e.q, nil); err != nil {
				t.Fatalf("%s after cancellation: %v", e.q, err)
			}
		}
	})

	t.Run("budget-tripped", func(t *testing.T) {
		db := genParallelDB(t, 47)
		setDOP(db, 4)
		for _, e := range exchangeQueries {
			checkExchangeShape(t, db, e.q, e.shape)
			// ta holds 320 rows: the trip lands while workers still run.
			setLimits(db, Limits{MaxRows: 64})
			before := runtime.NumGoroutine()
			_, err := db.Exec(e.q, nil)
			var rerr *ResourceError
			if !errors.As(err, &rerr) || rerr.Budget != "rows" {
				t.Fatalf("%s: want rows ResourceError, got %v", e.q, err)
			}
			checkExchangeWoundDown(t, db, e.q, before)
			setLimits(db, Limits{})
			if _, err := db.Exec(e.q, nil); err != nil {
				t.Fatalf("%s after budget trip: %v", e.q, err)
			}
		}
	})

	t.Run("timeout", func(t *testing.T) {
		db := genParallelDB(t, 53)
		setDOP(db, 4)
		for _, e := range exchangeQueries {
			checkExchangeShape(t, db, e.q, e.shape)
			setLimits(db, Limits{Timeout: time.Nanosecond})
			before := runtime.NumGoroutine()
			_, err := db.Exec(e.q, nil)
			var rerr *ResourceError
			if !errors.As(err, &rerr) || rerr.Budget != "time" {
				t.Fatalf("%s: want time ResourceError, got %v", e.q, err)
			}
			setLimits(db, Limits{})
			checkExchangeWoundDown(t, db, e.q, before)
		}
	})
}

// TestParallelFailureReportedOnce: a failure inside an exchange reaches
// the statement once, not once per exchange it crosses — a REPART
// producer's budget trip surfaces through the partition reader's worker
// and must not surface again when the GATHER stops the REPART exchange.
func TestParallelFailureReportedOnce(t *testing.T) {
	db := genParallelDB(t, 47)
	setDOP(db, 4)
	for _, q := range []string{
		"SELECT x.k, COUNT(*) FROM ta x GROUP BY x.k",
		"SELECT DISTINCT x.v FROM ta x",
	} {
		checkExchangeShape(t, db, q, "REPART")
		setLimits(db, Limits{MaxRows: 50})
		_, err := db.Exec(q, nil)
		setLimits(db, Limits{})
		var rerr *ResourceError
		if !errors.As(err, &rerr) || rerr.Budget != "rows" {
			t.Fatalf("%s: want rows ResourceError, got %v", q, err)
		}
		if n := strings.Count(err.Error(), "row budget exhausted"); n != 1 {
			t.Fatalf("%s: the failure is reported %d times:\n%v", q, n, err)
		}
	}
}

// TestPreparedStmtFollowsParallelism: a prepared statement's plan is
// valid only under the settings it was compiled for, so a change of
// Parallelism re-plans it, in both directions, for DB.Prepare and
// Session.Prepare alike.
func TestPreparedStmtFollowsParallelism(t *testing.T) {
	db := genParallelDB(t, 53)
	sess := db.NewSession()
	parallel := db.Metrics().Counter(MetricParallelStatements)
	for _, c := range []struct {
		name    string
		h       handle
		prepare func(string) (*Stmt, error)
	}{
		{"db", db, db.Prepare},
		{"session", sess, sess.Prepare},
	} {
		t.Run(c.name, func(t *testing.T) {
			prepare := func(dop int) *Stmt {
				t.Helper()
				setDOP(c.h, dop)
				st, err := c.prepare(parallelEligibleQuery)
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Contains(st.Plan(), "GATHER"); got != (dop > 1) {
					t.Fatalf("prepared at DOP %d: GATHER in plan = %v\n%s", dop, got, st.Plan())
				}
				return st
			}
			run := func(st *Stmt, dop int) {
				t.Helper()
				setDOP(c.h, dop)
				before := parallel.Value()
				if _, err := st.Query(context.Background(), nil); err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				if dop > 1 {
					want = 1
				}
				if got := parallel.Value() - before; got != want {
					t.Fatalf("run at DOP %d: %d parallel statements, want %d", dop, got, want)
				}
				if got := strings.Contains(st.Plan(), "GATHER"); got != (dop > 1) {
					t.Fatalf("run at DOP %d: GATHER in plan = %v\n%s", dop, got, st.Plan())
				}
			}
			run(prepare(4), 1)
			run(prepare(1), 4)
		})
	}
}

// TestParallelObservability covers the metrics and the EXPLAIN ANALYZE
// rendering of parallel execution.
func TestParallelObservability(t *testing.T) {
	db := genParallelDB(t, 59)
	setDOP(db, 4)
	m := db.Metrics()

	before := m.Counter(MetricParallelStatements).Value()
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(parallelEligibleQuery, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Counter(MetricParallelStatements).Value(); got < before+3 {
		t.Fatalf("parallel statements counter %d, want >= %d", got, before+3)
	}
	if g := m.Gauge(MetricParallelWorkers).Value(); g != 0 {
		t.Fatalf("worker gauge %d after statements finished, want 0", g)
	}
	if m.Histogram(MetricExchangeBatchRows, exchangeBatchBuckets).Count() == 0 {
		t.Fatal("exchange batch histogram never observed")
	}

	res, err := db.Exec("EXPLAIN ANALYZE "+parallelEligibleQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].String())
		text.WriteString("\n")
	}
	out := text.String()
	if !strings.Contains(out, "GATHER") {
		t.Fatalf("EXPLAIN ANALYZE lost the exchange:\n%s", out)
	}
	if !strings.Contains(out, "workers=[") {
		t.Fatalf("EXPLAIN ANALYZE has no per-worker row counts:\n%s", out)
	}
}

// runInstrumentedParallel mirrors runInstrumented (observe_test.go) but
// also arms the statement with the DB's parallelism knobs, so exchange
// operators actually spawn workers under the shared Instrumentation.
func runInstrumentedParallel(db *DB, instr *exec.Instrumentation, compiled *plan.Compiled,
	params map[string]Value, goCtx context.Context) ([]Row, error) {
	s, err := db.builder.Instrumented(instr).Build(compiled.Root, nil)
	if err != nil {
		return nil, err
	}
	ctx := exec.NewCtx(db.cat, params)
	ctx.Arm(goCtx, db.Settings().Limits)
	db.armParallel(ctx)
	return exec.Run(ctx, s)
}

// TestParallelStatsCumulative reruns one prepared parallel statement
// against a single shared Instrumentation and checks that every plan
// node's counters stay cumulative-monotone across executions (the PR-3
// invariant, now under worker concurrency) — including across a failed
// leg, where workers are cancelled mid-flight.
func TestParallelStatsCumulative(t *testing.T) {
	db := genParallelDB(t, 61)
	setDOP(db, 4)

	compiled := preparedPlan(parallelEligibleQuery)(t, db)
	if n := plan.CollectOps(compiled.Root)[plan.OpGather]; n != 1 {
		t.Fatalf("prepared plan has %d GATHER nodes, want 1", n)
	}

	instr := exec.NewInstrumentation()
	var prev map[*plan.Node]obs.OpStats
	var wantKeys []string
	for i := 0; i < 3; i++ {
		rows, err := runInstrumentedParallel(db, instr, compiled, nil, context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			for _, r := range rows {
				wantKeys = append(wantKeys, datum.RowKey(datum.Row(r)))
			}
		} else if len(rows) != len(wantKeys) {
			t.Fatalf("run %d: got %d rows, want %d", i, len(rows), len(wantKeys))
		}
		prev = checkStatsInvariants(t, instr, compiled.Root, prev)
	}

	// Failure leg: a pre-cancelled context kills the workers mid-open,
	// but the harvested counters must still only move forward.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runInstrumentedParallel(db, instr, compiled, nil, cancelled); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	prev = checkStatsInvariants(t, instr, compiled.Root, prev)

	// And a clean run after the failure keeps accumulating.
	if _, err := runInstrumentedParallel(db, instr, compiled, nil, context.Background()); err != nil {
		t.Fatal(err)
	}
	checkStatsInvariants(t, instr, compiled.Root, prev)
}

// TestOperatorsCloseOncePerOpen: an operator closes only the inputs it
// still holds open, so after a clean run every plan node was closed
// exactly as often as it was opened — under each join method, and at
// DOP 4 through both exchanges and the ordered merge.
func TestOperatorsCloseOncePerOpen(t *testing.T) {
	type runner func(*DB, *exec.Instrumentation, *plan.Compiled, map[string]Value, context.Context) ([]Row, error)
	check := func(t *testing.T, db *DB, q string, run runner) {
		t.Helper()
		compiled := preparedPlan(q)(t, db)
		instr := exec.NewInstrumentation()
		if _, err := run(db, instr, compiled, nil, context.Background()); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		walkPlan(compiled.Root, func(n *plan.Node) {
			if st := instr.OpStats(n); st != nil && st.Closes != st.Opens {
				t.Errorf("%s: %s (%s) opened %d times, closed %d times", q, n.Op, instr.Kind(n), st.Opens, st.Closes)
			}
		})
	}
	for _, method := range []string{"NestedLoop", "HashJoin", "MergeJoin"} {
		db := oneJoinMethodDB(t, method)
		g := &queryGen{rng: rand.New(rand.NewSource(99))}
		for i := 0; i < 60; i++ {
			check(t, db, g.query(), runInstrumented)
		}
	}
	db := genParallelDB(t, 67)
	setDOP(db, 4)
	for _, e := range exchangeQueries {
		checkExchangeShape(t, db, e.q, e.shape)
		check(t, db, e.q, runInstrumentedParallel)
	}
}
