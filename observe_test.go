package starburst

// Observability tests: per-operator stats invariants over every
// operator kind (clean, under faults, under cancellation), the metrics
// registry counters, tracing, the slow-query log, EXPLAIN ANALYZE end
// to end, and the shared row-accounting path (instrumentation must not
// change MaxRows semantics).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// walkPlan visits every node of a plan tree once.
func walkPlan(n *plan.Node, f func(*plan.Node)) {
	seen := map[*plan.Node]bool{}
	var rec func(*plan.Node)
	rec = func(n *plan.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		f(n)
		for _, in := range n.Inputs {
			rec(in)
		}
	}
	rec(n)
}

// checkStatsInvariants asserts the structural invariants every
// operator's stats must satisfy, in any outcome: counters non-negative,
// rows never exceed what the protocol calls could carry (one per Next,
// a 1024-row batch per NextColBatch), timings non-negative, and no
// counter below its previous snapshot (cumulative monotonicity).
func checkStatsInvariants(t *testing.T, instr *exec.Instrumentation, root *plan.Node,
	prev map[*plan.Node]obs.OpStats) map[*plan.Node]obs.OpStats {
	t.Helper()
	now := map[*plan.Node]obs.OpStats{}
	walkPlan(root, func(n *plan.Node) {
		st := instr.OpStats(n)
		if st == nil {
			t.Fatalf("node %s built without stats", n.Op)
		}
		now[n] = *st
		for _, v := range []struct {
			name string
			val  int64
		}{
			{"Rows", st.Rows}, {"Opens", st.Opens}, {"Nexts", st.Nexts}, {"Closes", st.Closes},
			{"OpenNanos", st.OpenNanos}, {"NextNanos", st.NextNanos}, {"CloseNanos", st.CloseNanos},
			{"MemHighWater", st.MemHighWater}, {"CacheHits", st.CacheHits}, {"CacheMisses", st.CacheMisses},
		} {
			if v.val < 0 {
				t.Errorf("node %s: %s = %d < 0", n.Op, v.name, v.val)
			}
		}
		perCall := int64(1)
		switch instr.Kind(n) {
		case "scanOp", "filterOp", "projectOp", "hashJoinOp", "groupOp", "setOp", "recUnionOp", "recRefOp",
			"sortOp", "limitOp", "tableFnOp", "chooseOp":
			perCall = 1024 // batch producers; none of these joins fans out past a batch
		}
		if st.Rows > st.Nexts*perCall {
			t.Errorf("node %s: produced %d rows in %d protocol calls", n.Op, st.Rows, st.Nexts)
		}
		if st.Rows > 0 && st.Opens == 0 {
			t.Errorf("node %s: produced rows without being opened", n.Op)
		}
		if instr.SelfNanos(n) < 0 {
			t.Errorf("node %s: negative self time", n.Op)
		}
		if p, ok := prev[n]; ok {
			if st.Rows < p.Rows || st.Opens < p.Opens || st.Nexts < p.Nexts || st.Closes < p.Closes ||
				st.OpenNanos < p.OpenNanos || st.NextNanos < p.NextNanos || st.CloseNanos < p.CloseNanos {
				t.Errorf("node %s: counters regressed across runs: %+v -> %+v", n.Op, p, *st)
			}
		}
	})
	return now
}

// runInstrumented executes a compiled plan through the stats decorator
// with the package-internal pieces, so one Instrumentation can
// accumulate across several runs.
func runInstrumented(db *DB, instr *exec.Instrumentation, compiled *plan.Compiled,
	params map[string]Value, goCtx context.Context) ([]Row, error) {
	return runInstrumentedArgs(db, instr, compiled, params, nil, goCtx)
}

// runInstrumentedArgs is runInstrumented binding args as the plan's
// lifted VALUES cells (see liftedArgs).
func runInstrumentedArgs(db *DB, instr *exec.Instrumentation, compiled *plan.Compiled,
	params map[string]Value, args []Value, goCtx context.Context) ([]Row, error) {
	if db.faults != nil {
		db.faults.SetInterrupt(goCtx.Done())
		defer db.faults.SetInterrupt(nil)
	}
	s, err := db.builder.Vectorized(db.Vectorized()).Instrumented(instr).Build(compiled.Root, nil)
	if err != nil {
		return nil, err
	}
	tx := autoTx(db)
	ctx := exec.NewCtx(tx.cat, params)
	ctx.SetArgs(args)
	ctx.Snap = tx.snapshot()
	ctx.Txn = tx.ts
	ctx.Arm(goCtx, db.Settings().Limits)
	rows, err := exec.Run(ctx, s)
	return rows, db.finishAuto(tx, err, nil)
}

// TestAnalyzeInvariantsEveryOperator drives the full fault-matrix
// operator table through the stats decorator three ways — with the
// case's fault injected, under cancellation mid-fault-latency, and
// clean (twice) — checking after every leg that the per-operator stats
// are consistent, cumulative, and that the root operator's row count
// equals the rows actually returned. Failing legs run first: they roll
// back, so the table state the later legs see is unchanged.
func TestAnalyzeInvariantsEveryOperator(t *testing.T) {
	for _, c := range faultMatrixCases() {
		t.Run(c.name, func(t *testing.T) {
			db := robustDB(t)
			if c.setup != nil {
				c.setup(t, db)
			}
			compiled := c.compilePlan(t, db)
			instr := exec.NewInstrumentation()
			var prev map[*plan.Node]obs.OpStats

			// Under the case's fault: the statement fails, stats stay sane.
			db.InjectFaults(c.fault)
			if _, err := runInstrumentedArgs(db, instr, compiled, c.params, liftedArgs(c.sql), context.Background()); err == nil {
				t.Fatal("statement succeeded despite injected fault")
			}
			prev = checkStatsInvariants(t, instr, compiled.Root, prev)
			db.ClearFaults()

			// Cancelled mid-statement: the same fault site stalls instead of
			// failing, and the context is cancelled during the stall.
			db.InjectFaults(&Fault{Table: c.fault.Table, Op: c.fault.Op,
				After: c.fault.After, Latency: 5 * time.Second})
			goCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			if _, err := runInstrumentedArgs(db, instr, compiled, c.params, liftedArgs(c.sql), goCtx); err == nil {
				t.Fatal("statement succeeded under a cancelled context")
			}
			cancel()
			prev = checkStatsInvariants(t, instr, compiled.Root, prev)
			db.ClearFaults()
			db.DetachFaults()

			// Two clean runs: stats keep accumulating, never regress, and
			// the root's produced-row delta equals the result set each time.
			prevRootRows := instr.OpStats(compiled.Root).Rows
			for run := 0; run < 2; run++ {
				rows, err := runInstrumentedArgs(db, instr, compiled, c.params, liftedArgs(c.sql), context.Background())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				rootRows := instr.OpStats(compiled.Root).Rows
				if got := rootRows - prevRootRows; got != int64(len(rows)) {
					t.Fatalf("run %d: root stats counted %d rows, result has %d", run, got, len(rows))
				}
				prevRootRows = rootRows
				prev = checkStatsInvariants(t, instr, compiled.Root, prev)
			}
		})
	}
}

// TestInstrumentationKeepsBudgetSemantics: observing a statement must
// not change its verdict. The stats decorator charges nothing to the
// work budget, so for every MaxRows from "always trips" to "never
// trips" a statement fails or succeeds — and, failing, reports the same
// ResourceError.Used — whether it runs plain, with the slow-query log
// armed, with a span exporter installed, with cardinality feedback
// armed, or under EXPLAIN ANALYZE.
func TestInstrumentationKeepsBudgetSemantics(t *testing.T) {
	queries := []string{
		// Columnar scan under row filter/project fallbacks and a sort.
		`SELECT a+1 FROM t WHERE b+0 < 100 ORDER BY a`,
		// Columnar all the way into the hash aggregate.
		`SELECT b, COUNT(*) FROM t WHERE a >= 0 GROUP BY b`,
	}
	modes := []struct {
		name    string
		arm     func(db *DB)
		explain bool
	}{
		{name: "plain", arm: func(*DB) {}},
		{name: "slow-log", arm: func(db *DB) { db.SetSlowQueryThreshold(time.Hour) }},
		{name: "span-exporter", arm: func(db *DB) { db.SetSpanExporter(func(*StatementSpan) {}) }},
		{name: "feedback", arm: func(db *DB) { setFeedback(db, true) }},
		{name: "explain-analyze", arm: func(*DB) {}, explain: true},
	}
	limits := []int64{5, 255, 256, 600, 1000, 1500, 2000, 2600, 5000, 100000}
	// verdict is -1 for success, else the ResourceError's Used.
	type key struct {
		q     string
		limit int64
	}
	want := map[key]int64{}
	for _, m := range modes {
		db := Open()
		mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
		for i := 0; i < 600; i++ {
			mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i%7))
		}
		mustExec(t, db, `ANALYZE t`)
		m.arm(db)
		trips, passes := 0, 0
		for _, q := range queries {
			for _, limit := range limits {
				setLimits(db, Limits{MaxRows: limit})
				sql := q
				if m.explain {
					sql = "EXPLAIN ANALYZE " + q
				}
				_, err := db.Exec(sql, nil)
				verdict := int64(-1)
				if err != nil {
					var rerr *ResourceError
					if !errors.As(err, &rerr) || rerr.Budget != "rows" {
						t.Fatalf("%s MaxRows=%d: %s: want rows ResourceError or success, got %v", m.name, limit, q, err)
					}
					verdict = rerr.Used
					trips++
				} else {
					passes++
				}
				k := key{q, limit}
				if m.name == "plain" {
					want[k] = verdict
				} else if verdict != want[k] {
					t.Errorf("%s MaxRows=%d: %s: verdict %d, plain run's %d (-1 = success, else ticks used)",
						m.name, limit, q, verdict, want[k])
				}
			}
		}
		if trips == 0 || passes == 0 {
			t.Fatalf("%s: sweep saw %d trips and %d successes; it must straddle the budget", m.name, trips, passes)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	db := robustDB(t)
	m := db.Metrics()

	// robustDB's setup already executed statements; count deltas.
	kinds := []string{"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "EXPLAIN", "EXPLAIN ANALYZE"}
	base := map[string]int64{}
	for _, k := range kinds {
		base[k] = m.CounterValue(MetricStatements, "kind", k)
	}

	mustExec(t, db, `SELECT id FROM items`)
	mustExec(t, db, `SELECT tag FROM items`)
	mustExec(t, db, `INSERT INTO orders VALUES (99, 1, 1)`)
	mustExec(t, db, `UPDATE items SET qty = qty + 1 WHERE id = 1`)
	mustExec(t, db, `DELETE FROM orders WHERE oid = 99`)
	mustExec(t, db, `CREATE TABLE tmp (x INT)`)
	mustExec(t, db, `DROP TABLE tmp`)
	mustExec(t, db, `EXPLAIN SELECT id FROM items`)
	mustExec(t, db, `EXPLAIN ANALYZE SELECT id FROM items`)

	for _, want := range []struct {
		kind string
		n    int64
	}{
		{"SELECT", 2}, {"INSERT", 1}, {"UPDATE", 1}, {"DELETE", 1},
		{"CREATE", 1}, {"DROP", 1}, {"EXPLAIN", 1}, {"EXPLAIN ANALYZE", 1},
	} {
		if got := m.CounterValue(MetricStatements, "kind", want.kind) - base[want.kind]; got != want.n {
			t.Errorf("statements{kind=%q} += %d, want %d", want.kind, got, want.n)
		}
	}

	// Errors by phase: a parse error and an exec-phase budget trip.
	if _, err := db.Exec(`SELEC id FROM items`, nil); err == nil {
		t.Fatal("want parse error")
	}
	if got := m.CounterValue(MetricStatementErrors, "phase", "parse"); got != 1 {
		t.Errorf("statement_errors{phase=parse} = %d, want 1", got)
	}
	setLimits(db, Limits{MaxRows: 2})
	if _, err := db.Exec(`SELECT i.id FROM items i, orders o, items j`, nil); err == nil {
		t.Fatal("want budget error")
	}
	setLimits(db, Limits{})
	if got := m.CounterValue(MetricStatementErrors, "phase", "exec"); got != 1 {
		t.Errorf("statement_errors{phase=exec} = %d, want 1", got)
	}
	if got := m.CounterValue(MetricBudgetTrips, "budget", "rows"); got != 1 {
		t.Errorf("budget_trips{budget=rows} = %d, want 1", got)
	}

	// Subquery cache: orders.item repeats, so the correlated subquery
	// must both miss (first sighting) and hit (repeat).
	mustExec(t, db, `SELECT oid FROM orders WHERE n > (SELECT qty FROM items WHERE id = orders.item)`)
	hits := m.Counter(MetricSubqCacheHits).Value()
	misses := m.Counter(MetricSubqCacheMisses).Value()
	if hits == 0 || misses == 0 {
		t.Errorf("subquery cache: hits=%d misses=%d, want both > 0", hits, misses)
	}

	// Rollbacks: a failing multi-row INSERT undoes its partial work.
	db.InjectFaults(&Fault{Table: "orders", Op: FaultInsert, After: 2, Err: "boom"})
	if _, err := db.Exec(`INSERT INTO orders SELECT id, id, qty FROM items`, nil); err == nil {
		t.Fatal("want fault error")
	}
	if got := m.Counter(MetricRollbacks).Value(); got < 1 {
		t.Errorf("rollbacks = %d, want >= 1", got)
	}
	// The fault-fired gauge tracks the injector.
	var dump bytes.Buffer
	if _, err := m.WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), MetricFaultsFired+" 1") {
		t.Errorf("metrics dump missing %s:\n%s", MetricFaultsFired, dump.String())
	}
	if !strings.Contains(dump.String(), MetricStatementSeconds+"_count") {
		t.Errorf("metrics dump missing latency histogram:\n%s", dump.String())
	}
}

func TestTracingOnResult(t *testing.T) {
	db := robustDB(t)
	res := mustExec(t, db, `SELECT id FROM items`)
	if res.Trace != nil {
		t.Fatal("tracing off: Result.Trace must be nil")
	}
	setTracing(db, true)
	res = mustExec(t, db, `SELECT i.id FROM items i, orders o WHERE i.id = o.item`)
	if res.Trace == nil {
		t.Fatal("tracing on: Result.Trace missing")
	}
	tr := res.Trace
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if tr.Phases[p] < 0 {
			t.Errorf("phase %s negative: %v", p, tr.Phases[p])
		}
	}
	if tr.Phases[obs.PhaseParse] == 0 || tr.Phases[obs.PhaseOptimize] == 0 {
		t.Errorf("parse/optimize phases not timed: %v", tr.Phases)
	}
	if len(tr.StarExpansions) == 0 {
		t.Errorf("no STAR expansions recorded")
	}
	prep, err := db.Prepare(`SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := prep.Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Trace == nil {
		t.Fatal("tracing on: prepared Result.Trace missing")
	}
	setTracing(db, false)
	if res = mustExec(t, db, `SELECT id FROM items`); res.Trace != nil {
		t.Fatal("tracing off again: Result.Trace must be nil")
	}
}

// TestRewriteFiringsTraced needs a statement the rewrite engine
// actually transforms; a view reference always merges.
func TestRewriteFiringsTraced(t *testing.T) {
	db := robustDB(t)
	mustExec(t, db, `CREATE VIEW big AS SELECT id, qty FROM items WHERE qty > 20`)
	setTracing(db, true)
	res := mustExec(t, db, `SELECT id FROM big WHERE qty < 100`)
	if res.Trace == nil || len(res.Trace.RuleFirings) == 0 {
		t.Fatalf("view query recorded no rule firings: %+v", res.Trace)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := robustDB(t)
	var buf bytes.Buffer
	db.SetSlowQueryLog(slog.NewTextHandler(&buf, nil))
	db.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	mustExec(t, db, `SELECT i.id FROM items i, orders o WHERE i.id = o.item`)
	out := buf.String()
	for _, want := range []string{"slow query", "kind=SELECT", "phase_execute=", "op1."} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query record missing %q:\n%s", want, out)
		}
	}
	if got := db.Metrics().Counter(MetricSlowQueries).Value(); got != 1 {
		t.Errorf("slow_queries = %d, want 1", got)
	}

	// Disarm: nothing further is emitted.
	db.SetSlowQueryThreshold(0)
	buf.Reset()
	mustExec(t, db, `SELECT id FROM items`)
	if buf.Len() != 0 {
		t.Errorf("disarmed slow log still emitted: %s", buf.String())
	}

	// A fast threshold is never crossed by doing nothing slow enough to
	// matter here — but errors over the threshold are reported too.
	db.SetSlowQueryThreshold(time.Nanosecond)
	buf.Reset()
	if _, err := db.Exec(`SELECT id FROM nowhere`, nil); err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(buf.String(), "error=") {
		t.Errorf("failed slow statement not reported: %s", buf.String())
	}
}

func TestExplainAnalyzeEndToEnd(t *testing.T) {
	db := robustDB(t)
	flat := func(res *Result) string {
		var b strings.Builder
		for _, r := range res.Rows {
			b.WriteString(r[0].String())
			b.WriteString("\n")
		}
		return b.String()
	}

	// Join: actual row counts annotate every operator.
	res := mustExec(t, db, `EXPLAIN ANALYZE SELECT i.id FROM items i, orders o WHERE i.id = o.item`)
	if len(res.Columns) != 1 || res.Columns[0] != "EXPLAIN ANALYZE" {
		t.Fatalf("columns = %v", res.Columns)
	}
	text := flat(res)
	for _, want := range []string{"actual rows=", "phase times:", "STARs expanded:", "row(s) returned"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}

	// Subquery: the cache line appears.
	text = flat(mustExec(t, db,
		`EXPLAIN ANALYZE SELECT oid FROM orders WHERE n > (SELECT qty FROM items WHERE id = orders.item)`))
	if !strings.Contains(text, "subquery cache:") {
		t.Errorf("missing subquery cache line in:\n%s", text)
	}

	// Aggregate.
	text = flat(mustExec(t, db, `EXPLAIN ANALYZE SELECT tag, COUNT(*) FROM items GROUP BY tag`))
	if !strings.Contains(text, "GROUP") || !strings.Contains(text, "actual rows=2") {
		t.Errorf("aggregate plan not annotated:\n%s", text)
	}

	// DML executes for real: the UPDATE is visible afterwards.
	res = mustExec(t, db, `EXPLAIN ANALYZE UPDATE items SET qty = 1000 WHERE id = 1`)
	if res.Affected != 1 {
		t.Fatalf("EXPLAIN ANALYZE UPDATE affected = %d, want 1", res.Affected)
	}
	if !strings.Contains(flat(res), "1 row(s) affected") {
		t.Errorf("missing affected line:\n%s", flat(res))
	}
	check := mustExec(t, db, `SELECT qty FROM items WHERE id = 1`)
	if len(check.Rows) != 1 || check.Rows[0][0].String() != "1000" {
		t.Fatalf("EXPLAIN ANALYZE UPDATE did not apply: %v", check.Rows)
	}

	// Errors surface as errors, not as plans.
	setLimits(db, Limits{MaxRows: 1})
	if _, err := db.Exec(`EXPLAIN ANALYZE SELECT i.id FROM items i, orders o, items j`, nil); err == nil {
		t.Fatal("budget error must escape EXPLAIN ANALYZE")
	}
	setLimits(db, Limits{})
}

// TestObsServerEndToEnd scrapes a live DB's /metrics over HTTP and
// checks the exposition is well-formed and reflects executed work.
func TestObsServerEndToEnd(t *testing.T) {
	db := robustDB(t)
	mustExec(t, db, `SELECT id FROM items`)
	srv, err := db.StartObsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `starburst_statements_total{kind="SELECT"} 1`) {
		t.Errorf("scrape missing statement counter:\n%s", body)
	}
}
