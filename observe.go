package starburst

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
)

// This file is the observability surface of the DB: per-statement phase
// tracing, the metrics registry, the slow-query log, and the EXPLAIN
// ANALYZE renderer. All of it is always compiled in and default-off;
// the only always-on cost is one counter bump and one histogram
// observation per statement.

// Re-exported observability types.
type (
	// Trace is the per-statement phase trace: wall time per
	// compilation/execution phase, rewrite-rule firing counts, and
	// STAR expansion counts.
	Trace = obs.Trace
	// OpStats is the per-operator runtime profile collected under
	// EXPLAIN ANALYZE or an armed slow-query log.
	OpStats = obs.OpStats
	// Registry is the dependency-free metrics registry backing
	// DB.Metrics.
	Registry = obs.Registry
	// ObsServer serves /metrics and /debug/pprof for one DB.
	ObsServer = obs.Server
)

// Metric names exported by every DB.
const (
	// MetricStatements counts statements by kind label.
	MetricStatements = "starburst_statements_total"
	// MetricStatementErrors counts failed statements by the phase the
	// error escaped from.
	MetricStatementErrors = "starburst_statement_errors_total"
	// MetricBudgetTrips counts ResourceError returns by budget label
	// (rows, mem, time).
	MetricBudgetTrips = "starburst_budget_trips_total"
	// MetricRollbacks counts statement-atomicity undo rollbacks.
	MetricRollbacks = "starburst_rollbacks_total"
	// MetricSubqCacheHits / Misses count subquery-cache lookups.
	MetricSubqCacheHits   = "starburst_subq_cache_hits_total"
	MetricSubqCacheMisses = "starburst_subq_cache_misses_total"
	// MetricSlowQueries counts statements over the slow threshold.
	MetricSlowQueries = "starburst_slow_queries_total"
	// MetricFaultsFired reports fault injections fired (gauge; tracks
	// the attached injector).
	MetricFaultsFired = "starburst_faults_fired"
	// MetricStatementSeconds is the statement latency histogram.
	MetricStatementSeconds = "starburst_statement_seconds"

	// Durable-store gauges, registered when the DB has a data directory
	// (see WithDataDir).
	MetricBufferPoolHits   = "starburst_buffer_pool_hits"
	MetricBufferPoolMisses = "starburst_buffer_pool_misses"
	MetricWALBytes         = "starburst_wal_bytes"
	MetricWALSyncs         = "starburst_wal_syncs"
	MetricCheckpoints      = "starburst_checkpoints"
)

// Metrics exposes the DB's metrics registry (counters, gauges, the
// statement latency histogram). Always non-nil.
func (db *DB) Metrics() *Registry { return db.metrics }

// MetricsHandler returns an http.Handler serving the registry in
// Prometheus text exposition format at /metrics plus net/http/pprof
// under /debug/pprof/.
func (db *DB) MetricsHandler() http.Handler { return obs.Handler(db.metrics) }

// StartObsServer listens on addr (e.g. "127.0.0.1:0") and serves
// MetricsHandler until Close.
func (db *DB) StartObsServer(addr string) (*ObsServer, error) {
	return obs.StartServer(addr, db.metrics)
}

// SetSlowQueryThreshold arms the slow-query log: any statement whose
// end-to-end wall time reaches d is reported through the slow-query
// sink with its SQL text, phase timings, and the top 3 operators by
// self-time. d = 0 disarms. While armed, statements run instrumented
// (per-operator stats are needed for the report).
func (db *DB) SetSlowQueryThreshold(d time.Duration) { db.slowNanos.Store(int64(d)) }

// SetSlowQueryLog installs the slog handler slow-query records are
// emitted to; nil restores the default (slog.Default's handler).
func (db *DB) SetSlowQueryLog(h slog.Handler) {
	if h == nil {
		db.slowLog.Store(nil)
		return
	}
	l := slog.New(h)
	db.slowLog.Store(l)
}

func (db *DB) slowLogger() *slog.Logger {
	if l := db.slowLog.Load(); l != nil {
		return l
	}
	return slog.Default()
}

// instrumentWanted reports whether a statement should run with
// per-operator stats (needed by the armed slow-query log, by the
// operator spans of an installed span exporter, and by the
// cardinality-feedback loop's actual-row capture).
func (db *DB) instrumentWanted(set *Settings) bool {
	return db.slowNanos.Load() > 0 || db.spanExp.Load() != nil || set.CardinalityFeedback
}

// stmtKind classifies a statement for the statements-by-kind counter.
func stmtKind(stmt sql.Statement) string {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return "SELECT"
	case *sql.InsertStmt:
		return "INSERT"
	case *sql.UpdateStmt:
		return "UPDATE"
	case *sql.DeleteStmt:
		return "DELETE"
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt:
		return "CREATE"
	case *sql.DropStmt:
		return "DROP"
	case *sql.AnalyzeStmt:
		return "ANALYZE"
	case *sql.BeginStmt:
		return "BEGIN"
	case *sql.CommitStmt:
		return "COMMIT"
	case *sql.RollbackStmt:
		return "ROLLBACK"
	case *sql.ExplainStmt:
		if s.Analyze {
			return "EXPLAIN ANALYZE"
		}
		return "EXPLAIN"
	}
	return "OTHER"
}

// observation carries everything the per-statement observe defer needs;
// fields are filled in as the statement progresses. The record is
// reused: the statement core takes it from the DB's spare list
// (newObservation) and gives it back after observe (recycle), so a
// statement served from a parked tree does not allocate one.
type observation struct {
	query string
	// norm is the statement key (sql.Key), for the plan cache and
	// SYS.STATEMENTS; empty for a text with no tokens or that does not
	// lex, which is neither looked up nor recorded.
	norm  string
	kind  string
	start time.Time
	// set is the Settings value the statement runs under.
	set   *Settings
	trace *obs.Trace
	instr *exec.Instrumentation
	root  *plan.Node
	// waits accumulates the statement's wait events; shared with every
	// worker goroutine through exec.Ctx.
	waits obs.WaitSet
	// rows is the statement's output size (rows affected for DML, rows
	// returned otherwise); feeds SYS.STATEMENTS.
	rows int64
	// cacheHit records that the statement was served from the plan cache.
	cacheHit bool
}

// observe records a finished statement into the metrics registry and,
// when it was slow, emits a slow-query record. phase and err are read
// at defer time: the recover barrier (registered after, so it runs
// first) has already converted any panic into *QueryError.
func (db *DB) observe(o *observation, phase string, err error) {
	elapsed := time.Since(o.start)
	m := db.metrics
	m.CounterWith(MetricStatements, "kind", o.kind).Inc()
	m.Histogram(MetricStatementSeconds, obs.DefaultLatencyBuckets).Observe(elapsed.Seconds())
	if err != nil {
		m.CounterWith(MetricStatementErrors, "phase", phase).Inc()
		var rerr *exec.ResourceError
		if errors.As(err, &rerr) {
			m.CounterWith(MetricBudgetTrips, "budget", rerr.Budget).Inc()
		}
	}
	folds := int64(0)
	if err == nil {
		// Close the optimizer loop: fold diverging scan actuals into the
		// catalog's observed-cardinality overlays (no-op unless feedback
		// is enabled; see feedback.go).
		folds = db.captureCardFeedback(o)
	}
	if o.norm != "" {
		db.stmts.record(o.norm, o.kind, elapsed.Nanoseconds(), o.rows,
			o.instr.MemHighWater(), o.cacheHit, err != nil, folds, &o.waits)
	}
	if exp := db.spanExporter(); exp != nil {
		exp(db.buildSpan(o, err, elapsed))
	}
	if th := db.slowNanos.Load(); th > 0 && elapsed.Nanoseconds() >= th {
		m.Counter(MetricSlowQueries).Inc()
		db.emitSlow(o, elapsed, err)
	}
}

// emitSlow writes one structured slow-query record through the sink.
func (db *DB) emitSlow(o *observation, elapsed time.Duration, err error) {
	attrs := []slog.Attr{
		slog.String("sql", strings.TrimSpace(o.query)),
		slog.String("kind", o.kind),
		slog.Duration("elapsed", elapsed),
	}
	if o.trace != nil {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			attrs = append(attrs, slog.Duration("phase_"+p.String(), o.trace.Phases[p]))
		}
	}
	if o.instr != nil && o.root != nil {
		for i, op := range o.instr.TopBySelfTime(o.root, 3) {
			attrs = append(attrs, slog.Group(fmt.Sprintf("op%d", i+1),
				slog.String("op", op.Op),
				slog.Duration("self", time.Duration(op.SelfNanos)),
				slog.Int64("rows", op.Rows)))
		}
	}
	for i, w := range o.waits.TopWaits(3) {
		attrs = append(attrs, slog.Group(fmt.Sprintf("wait%d", i+1),
			slog.String("event", w.Event.String()),
			slog.Duration("total", time.Duration(w.Nanos)),
			slog.Int64("count", w.Count)))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	db.slowLogger().LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
}

// recordCtx folds one execution's Ctx counters into the metrics
// registry and the statement trace.
func (db *DB) recordCtx(ctx *exec.Ctx, tr *obs.Trace) {
	hits, misses := ctx.SubqCache()
	rollbacks := ctx.Rollbacks()
	if tr != nil {
		tr.SubqHits += hits
		tr.SubqMisses += misses
		tr.Rollbacks += rollbacks
	}
	if hits > 0 {
		db.metrics.Counter(MetricSubqCacheHits).Add(hits)
	}
	if misses > 0 {
		db.metrics.Counter(MetricSubqCacheMisses).Add(misses)
	}
	if rollbacks > 0 {
		db.metrics.Counter(MetricRollbacks).Add(rollbacks)
	}
}

// runObserved is the execution core plus observability: it optionally
// times the build and execute phases into tr and, when instrument is
// set (EXPLAIN ANALYZE) or the armed slow log, span export or feedback
// want it, builds the plan through the per-operator stats decorator,
// leaving the instrumentation and the row count on the observation o.
// o.set supplies the budgets and parallelism, so concurrent sessions
// execute under their own configuration, and attaches tr to the result
// when it asks for tracing. The plan executes inside tx: scans resolve
// row versions against its snapshot, DML writes through its write log,
// and table lookups read its pinned catalog generation. A plain
// execution runs the operator tree idle in trees (nil: none), or builds
// one, and parks it back after a clean run; an instrumented or
// kernels-off execution builds a fresh tree and releases it. Either
// way the run uses the tree's own exec.Ctx. params bind the host
// variables, args the lifted VALUES cells.
// starburst:locks db.adminMu:read
func (db *DB) runObserved(goCtx context.Context, compiled *plan.Compiled, trees *treeSlot,
	params map[string]Value, args []Value, tr *obs.Trace, o *observation, tx *Tx, instrument bool) (*Result, error) {
	if goCtx == nil {
		goCtx = context.Background()
	}
	set := o.set
	limits := set.Limits
	if limits.Timeout > 0 {
		var cancel context.CancelFunc
		goCtx, cancel = context.WithTimeout(goCtx, limits.Timeout)
		defer cancel()
	}
	if db.faults != nil {
		// Injected fault latency must abort as soon as the statement is
		// cancelled, not when the sleep elapses.
		db.faults.SetInterrupt(goCtx.Done())
		defer db.faults.SetInterrupt(nil)
	}
	builder := db.builder
	if db.kernelsOff {
		builder, trees = builder.Vectorized(false), nil
	}
	if instrument || db.instrumentWanted(set) {
		o.instr = exec.NewInstrumentation()
		builder, trees = builder.Instrumented(o.instr), nil
	}
	t0 := time.Now()
	tree := trees.take()
	if tree == nil {
		var err error
		if tree, err = builder.BuildTree(compiled.Root); err != nil {
			return nil, err
		}
	}
	tr.AddPhase(obs.PhaseBuild, time.Since(t0))
	clean := false
	defer func() {
		tree.Done()
		if clean {
			trees.park(tree)
		} else {
			tree.Release()
		}
	}()
	// A DML statement against a durable DB runs inside a WAL statement
	// group: its records replay after a crash only if the commit record
	// below lands on disk. The defer covers panics (injected crashes,
	// runtime faults) — an unresolved group is abandoned, never logged
	// as committed.
	stmtOpen := false
	if db.store != nil && rootIsDML(compiled.Root) {
		if err := db.store.BeginTxnStmt(tx.walTxn()); err != nil {
			return nil, err
		}
		stmtOpen = true
		// WAL waits inside the bracket are attributed to this statement;
		// the store detaches the wait set when the bracket resolves.
		db.store.SetStmtWaits(&o.waits)
		defer func() {
			if stmtOpen {
				db.store.AbortStmt()
			}
		}()
	}
	ctx := tree.Ctx(tx.cat, params)
	ctx.SetArgs(args)
	ctx.Snap = tx.snapshot()
	ctx.Txn = tx.ts
	ctx.SetWaits(db.waitProf, &o.waits)
	ctx.Arm(goCtx, limits)
	db.armParallel(ctx)
	mark := tx.ts.Mark()
	t0 = time.Now()
	rows, err := tree.Run(ctx)
	tr.AddPhase(obs.PhaseExec, time.Since(t0))
	db.recordCtx(ctx, tr)
	if err != nil && tx.ts.Writes() > mark {
		// Statement atomicity: a failing statement undoes its own writes,
		// leaving earlier statements of the transaction intact. The
		// compensations run while the WAL statement group is still open,
		// so aborting the group below drops originals and compensations
		// together.
		if rberr := tx.ts.RollbackTo(db.cat, mark); rberr != nil {
			err = errors.Join(err, rberr)
		}
		db.metrics.Counter(MetricRollbacks).Inc()
	}
	if stmtOpen {
		stmtOpen = false
		if err != nil {
			db.store.AbortStmt()
		} else if cerr := db.store.CommitStmt(); cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	clean = true
	res := &Result{Columns: compiled.OutputNames, Rows: rows, Affected: ctx.Affected()}
	if o.rows = res.Affected; o.rows == 0 {
		o.rows = int64(len(rows))
	}
	if set.Tracing {
		res.Trace = tr
	}
	return res, nil
}

// explainAnalyze EXECUTES the compiled inner statement through the
// stats decorator, then renders the plan annotated with actual row
// counts, timings, memory high-water marks and cache hit ratios, plus
// the phase-timing summary. DML side effects are applied as usual.
// starburst:locks db.adminMu:read
func (db *DB) explainAnalyze(goCtx context.Context, compiled *plan.Compiled,
	params map[string]Value, tr *obs.Trace, o *observation, tx *Tx) (*Result, error) {
	res, err := db.runObserved(goCtx, compiled, nil, params, nil, tr, o, tx, true)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	b.WriteString("=== Query evaluation plan (analyzed) ===\n")
	b.WriteString(plan.RenderAnnotated(compiled.Root, o.instr.Annotate))
	fmt.Fprintf(&b, "=== Execution summary ===\n")
	fmt.Fprintf(&b, "phase times: %s\n", tr)
	if len(tr.RuleFirings) > 0 {
		b.WriteString("rewrite rules fired: " + countList(tr.RuleFirings) + "\n")
	}
	if len(tr.StarExpansions) > 0 {
		b.WriteString("STARs expanded: " + countList(tr.StarExpansions) + "\n")
	}
	if tr.SubqHits+tr.SubqMisses > 0 {
		fmt.Fprintf(&b, "subquery cache: %d hits / %d misses\n", tr.SubqHits, tr.SubqMisses)
	}
	if res.Affected > 0 {
		fmt.Fprintf(&b, "%d row(s) affected\n", res.Affected)
	} else {
		fmt.Fprintf(&b, "%d row(s) returned\n", len(res.Rows))
	}

	out := linesResult("EXPLAIN ANALYZE", b.String())
	out.Affected, out.Trace = res.Affected, tr
	return out, nil
}

// countList renders a name→count map deterministically: "a=2 b=1".
func countList(m map[string]int) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, m[n])
	}
	return strings.Join(parts, " ")
}

// obsState groups the DB's observability knobs (embedded in DB).
type obsState struct {
	// metrics is the per-DB registry; created in Open.
	metrics *obs.Registry
	// slowNanos is the slow-query threshold; 0 disarmed.
	slowNanos atomic.Int64
	// slowLog overrides the slow-query sink (nil = slog.Default).
	slowLog atomic.Pointer[slog.Logger]
	// spareObs are the emptied observation records of finished
	// statements, for newObservation to reuse; its length is bounded by
	// the peak number of statements running at once. spareMu guards it.
	spareMu  sync.Mutex
	spareObs []*observation
}

// newObservation returns the observation record of one statement,
// reusing a finished statement's when there is one.
func (db *DB) newObservation(query string, set *Settings) *observation {
	var o *observation
	db.spareMu.Lock()
	if n := len(db.spareObs); n > 0 {
		o = db.spareObs[n-1]
		db.spareObs = db.spareObs[:n-1]
	}
	db.spareMu.Unlock()
	if o == nil {
		o = &observation{}
	}
	o.query, o.kind, o.start, o.set = query, "INVALID", time.Now(), set
	return o
}

// recycle empties o for newObservation to reuse. The statement must be
// over, and so must every holder of o.waits: the admin latch, the
// transaction's finish, the store's statement bracket (which detaches
// it under the store's wait lock, so no other session's WAL wait
// lands in it afterwards) and the tree's Ctx all let go of it before
// the statement core returns.
func (db *DB) recycle(o *observation) {
	*o = observation{}
	db.spareMu.Lock()
	db.spareObs = append(db.spareObs, o)
	db.spareMu.Unlock()
}
