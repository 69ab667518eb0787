// Package starburst is a from-scratch reproduction of the extensible
// query processor described in "Extensible Query Processing in
// Starburst" (Haas, Freytag, Lohman, Pirahesh; SIGMOD 1989).
//
// It implements Corona — the Starburst language processor — end to end:
// the Hydrogen query language (an orthogonal, extensible SQL dialect),
// the Query Graph Model internal representation, rule-based query
// rewrite, a STAR-driven cost-based plan optimizer with a join
// enumerator, and a stream-based Query Evaluation System; plus the
// parts of Core (the data manager) that Corona drives: record
// management, an extensible storage-manager architecture, and
// attachment (access method) types including B-trees.
//
// Every extension axis from the paper is available to database
// customizers (DBCs) through the DB methods: new types, scalar /
// aggregate / set-predicate / table functions, query rewrite rules,
// optimizer STARs, QES operators, join kinds, storage managers and
// access methods.
//
// Quickstart:
//
//	db := starburst.Open()
//	db.Exec(`CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)`, nil)
//	db.Exec(`INSERT INTO inventory VALUES (1, 10, 'CPU')`, nil)
//	res, err := db.Exec(`SELECT partno FROM inventory WHERE type = 'CPU'`, nil)
package starburst

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/txn"
)

// Re-exported core types, so DBC extensions are written against the
// public package alone.
type (
	// Value is a typed datum.
	Value = datum.Value
	// Row is a tuple of datums.
	Row = datum.Row
	// TypeID identifies a built-in or externally defined type.
	TypeID = datum.TypeID
	// TypeDef describes an externally defined column type.
	TypeDef = datum.TypeDef
	// ScalarFunc is an externally defined scalar function.
	ScalarFunc = expr.ScalarFunc
	// AggregateFunc is an externally defined aggregate function.
	AggregateFunc = expr.AggregateFunc
	// AggState accumulates one group for an aggregate function.
	AggState = expr.AggState
	// SetPredicateFunc is an externally defined set predicate (the
	// paper's MAJORITY example).
	SetPredicateFunc = expr.SetPredicateFunc
	// SetPredState folds per-element predicate truth values.
	SetPredState = expr.SetPredState
	// TableFunc is an externally defined table function (SAMPLE).
	TableFunc = expr.TableFunc
	// Relation is a materialized table exchanged with table functions.
	Relation = expr.Relation
	// ColumnDef names a relation column.
	ColumnDef = expr.ColumnDef
	// RewriteRule is a QGM rewrite rule (condition/action).
	RewriteRule = rewrite.Rule
	// RewriteContext is passed to rewrite rule conditions and actions.
	RewriteContext = rewrite.Context
	// RewriteOptions tunes the rewrite engine (strategy, budget, ...).
	RewriteOptions = rewrite.Options
	// AuditError is returned from compilation in audit mode when a rule
	// firing leaves the QGM invalid; it names the rule, the firing
	// index, and carries the verifier report and firing trace.
	AuditError = rewrite.AuditError
	// STARAlternative is one alternative definition of an optimizer
	// STAR.
	STARAlternative = optimizer.Alternative
	// OptArgs parameterizes a STAR invocation.
	OptArgs = optimizer.Args
	// OptCtx is the STAR evaluation context.
	OptCtx = optimizer.Ctx
	// PlanNode is a LOLEPOP invocation in a query evaluation plan.
	PlanNode = plan.Node
	// StorageManager stores table data (extension architecture).
	StorageManager = storage.StorageManager
	// AccessMethod is an attachment type (B-tree, R-tree, ...).
	AccessMethod = storage.AccessMethod
	// Stream is the QES tuple iterator interface.
	Stream = exec.Stream
	// ExecCtx is the QES execution context.
	ExecCtx = exec.Ctx
	// BuildFunc builds the executor for a DBC-registered plan operator.
	BuildFunc = exec.BuildFunc
)

// Datum constructors, re-exported.
var (
	// Null is the SQL NULL value.
	Null = datum.Null
	// NewInt makes an INT datum.
	NewInt = datum.NewInt
	// NewFloat makes a FLOAT datum.
	NewFloat = datum.NewFloat
	// NewString makes a STRING datum.
	NewString = datum.NewString
	// NewBool makes a BOOL datum.
	NewBool = datum.NewBool
	// NewUser makes a datum of an externally defined type.
	NewUser = datum.NewUser
	// TypeByName resolves an externally defined type name.
	TypeByName = datum.TypeByName
)

// Result is the outcome of executing a statement.
type Result struct {
	// Columns names the result columns (empty for DDL/DML).
	Columns []string
	// Rows holds the result tuples.
	Rows []Row
	// Affected counts rows touched by INSERT/UPDATE/DELETE.
	Affected int64
	// Trace is the phase trace, present when tracing is armed (see
	// DB.SetTracing) or the statement was EXPLAIN ANALYZE.
	Trace *Trace
}

// DB is one Starburst database instance: catalog plus the four
// compilation/execution components of Figure 1, each independently
// extensible.
//
// Concurrency contract: a DB is safe for concurrent use, and
// statements never serialize behind a DB-wide lock. Every statement
// runs inside a transaction — an explicit one (DB.Begin,
// Session.Begin, SQL BEGIN) or an implicit auto-commit transaction —
// whose MVCC snapshot gives it a stable view of the data while
// concurrent writers commit, and whose pinned copy-on-write catalog
// generation gives it a stable view of the schema while concurrent DDL
// publishes new generations. Writers conflict first-writer-wins;
// commits serialize only against each other. Per-client tuning belongs
// on a Session (see NewSession); the DB-level setters adjust the
// defaults new snapshots inherit.
type DB struct {
	cat      *catalog.Catalog
	rewriter *rewrite.Engine
	opt      *optimizer.Optimizer
	builder  *exec.Builder

	// mgr allocates transactions, owns the commit-timestamp watermark,
	// and serializes the commit protocol.
	mgr *txn.Manager
	// adminMu is the administrative lock that replaced the DB-wide
	// statement RWMutex: statements (queries, DML and DDL alike) hold
	// it shared for their duration, while operations that restructure
	// live engine state in place — Close, fault attach/detach — hold it
	// exclusively. Isolation between statements comes from MVCC
	// snapshots and copy-on-write catalog generations, never from this
	// lock.
	adminMu sync.RWMutex
	// cache is the shared plan cache, nil unless WithPlanCache.
	cache *planCache

	// store is the durable disk store, nil unless WithDataDir; dataDir
	// is its directory. openErr records a failed WithDataDir attach (or
	// recovery) — Open cannot return an error, so every statement
	// reports it instead. replay is non-nil only while WAL DDL replay is
	// re-executing statements through execDDL (see durable.go).
	store   *disk.Store
	dataDir string
	openErr error
	replay  *replayState

	// limits holds the default per-statement execution budgets (see
	// SetLimits); nil means unlimited.
	limits atomic.Pointer[exec.Limits]
	// faults is the attached fault injector, nil until InjectFaults.
	faults *storage.FaultInjector
	// dop is the default degree of parallelism (see SetParallelism in
	// parallel.go).
	dop atomic.Int32
	// colWidth, when nonzero, overrides the executor's columnar batch
	// width. Only tests set it, before running statements, so that
	// faults and refills land on batch boundaries.
	colWidth int
	// vecDisabled switches off columnar (vectorized) execution; stored
	// inverted so the zero value keeps vectorization on by default (see
	// SetVectorized in session.go).
	vecDisabled atomic.Bool
	// cardFeedback arms the cardinality-feedback loop (see feedback.go).
	cardFeedback atomic.Bool

	// obsState holds the observability knobs: metrics registry, phase
	// tracing, slow-query log (see observe.go).
	obsState

	// waitProf is the DB-wide wait-event profile; always on, feeds the
	// STMT IS NULL rows of SYS.WAITS (see introspect.go).
	waitProf *obs.WaitProfile
	// stmts is the statement-statistics accumulator (SYS.STATEMENTS).
	stmts stmtStats
	// sessions tracks open sessions (SYS.SESSIONS).
	sessions sessionReg
	// spanExp is the installed statement-trace exporter, nil when span
	// export is off (see SetSpanExporter).
	spanExp atomic.Pointer[SpanExporter]

	// Rewrite configures the query rewrite phase; the zero value runs
	// all rule classes sequentially to fixpoint.
	Rewrite rewrite.Options
	// SkipRewrite bypasses the query rewrite phase ("this phase could
	// be bypassed for faster query compilation at the expense of
	// potentially lower runtime performance").
	SkipRewrite bool
}

// SetAudit toggles self-checking compilation: the rewrite engine runs
// the deep QGM verifier after every rule firing (returning a structured
// *rewrite.AuditError naming the offending rule on failure), and the
// optimizer verifies every chosen plan against the QGM head. Audit mode
// is slower and intended for DBC rule/STAR development and debugging.
func (db *DB) SetAudit(on bool) {
	db.Rewrite.Audit = on
	db.opt.Audit = on
}

// Open creates an empty in-memory database with the base rule sets,
// configured by the given options, e.g.:
//
//	db := starburst.Open(
//		starburst.WithParallelism(4),
//		starburst.WithPlanCache(256),
//		starburst.WithLimits(starburst.Limits{MaxRows: 1e6}),
//	)
func Open(opts ...Option) *DB {
	cat := catalog.New()
	db := &DB{
		cat:      cat,
		rewriter: rewrite.NewDefaultEngine(),
		opt:      optimizer.New(cat),
		builder:  exec.NewBuilder(cat),
		mgr:      txn.NewManager(),
	}
	db.metrics = obs.NewRegistry()
	db.waitProf = obs.NewWaitProfile()
	for _, opt := range opts {
		opt(db)
	}
	db.registerIntrospection()
	db.describeMetrics()
	return db
}

// Catalog exposes the catalog for inspection.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Optimizer exposes the plan optimizer (join enumerator switches, STAR
// array) for tuning and extension.
func (db *DB) Optimizer() *optimizer.Optimizer { return db.opt }

// RewriteEngine exposes the query rewrite engine for rule registration.
func (db *DB) RewriteEngine() *rewrite.Engine { return db.rewriter }

// IOStats reports simulated storage I/O counters (reads, writes, index
// node touches).
func (db *DB) IOStats() (reads, writes, index int64) {
	return db.cat.IO.Snapshot()
}

// ResetIOStats zeroes the I/O counters.
func (db *DB) ResetIOStats() { db.cat.IO.Reset() }

// ---------------------------------------------------------------------
// DBC extension registration

// RegisterType installs an externally defined column type.
func (db *DB) RegisterType(def TypeDef) (TypeID, error) { return datum.RegisterType(def) }

// RegisterScalarFunc installs a scalar function usable anywhere a
// column can be referenced.
func (db *DB) RegisterScalarFunc(f *ScalarFunc) error { return db.cat.Funcs.RegisterScalar(f) }

// RegisterAggregate installs an aggregate function usable in place of
// built-in aggregates.
func (db *DB) RegisterAggregate(f *AggregateFunc) error { return db.cat.Funcs.RegisterAggregate(f) }

// RegisterSetPredicate installs a set predicate function; queries may
// then use "expr op NAME (subquery)", and QGM gains a quantifier type
// of the same name.
func (db *DB) RegisterSetPredicate(f *SetPredicateFunc) error {
	return db.cat.Funcs.RegisterSetPredicate(f)
}

// RegisterTableFunc installs a table function usable anywhere a table
// can appear.
func (db *DB) RegisterTableFunc(f *TableFunc) error { return db.cat.Funcs.RegisterTableFunc(f) }

// RegisterRewriteRule adds a DBC query rewrite rule.
func (db *DB) RegisterRewriteRule(r *RewriteRule) error { return db.rewriter.Register(r) }

// AddSTARAlternative extends the optimizer's STAR array.
func (db *DB) AddSTARAlternative(star string, alt *STARAlternative) {
	db.opt.Generator().AddAlternative(star, alt)
}

// RegisterStorageManager installs a storage manager; tables select it
// with CREATE TABLE ... USING <name>. Registering a second manager
// under an existing name is rejected with a *storage.DuplicateError.
func (db *DB) RegisterStorageManager(m StorageManager) error {
	return db.cat.Storage.RegisterStorageManager(m)
}

// RegisterAccessMethod installs an attachment type; indexes select it
// with CREATE INDEX ... USING <name>. Registering a second method under
// an existing name is rejected with a *storage.DuplicateError.
func (db *DB) RegisterAccessMethod(m AccessMethod) error {
	return db.cat.Storage.RegisterAccessMethod(m)
}

// RegisterOperator installs a QES executor for a DBC plan operator
// emitted by custom STARs.
func (db *DB) RegisterOperator(op string, f BuildFunc) { db.builder.RegisterOperator(op, f) }

// ---------------------------------------------------------------------
// Statement execution (Figure 1)

// Query parses, compiles and executes one statement under ctx; it is
// the context-first core every other execution entry point wraps. The
// statement runs inside an implicit auto-commit transaction: committed
// when it succeeds, rolled back when it fails. Params bind host
// language variables (":name" references). Cancelling ctx aborts the
// statement at the next tuple boundary. Errors are reported as
// *QueryError.
func (db *DB) Query(ctx context.Context, query string, params map[string]Value) (*Result, error) {
	return db.query(ctx, query, params, db.snapshot(), nil, nil)
}

// Exec is Query under context.Background(), kept as the short form for
// examples, tests and non-cancellable callers.
func (db *DB) Exec(query string, params map[string]Value) (*Result, error) {
	return db.query(context.Background(), query, params, db.snapshot(), nil, nil)
}

// query is the single statement core: every public execution entry
// point (DB.Query/Exec/ExecContext, Session.Query/Exec, Tx.Query/Exec,
// the database/sql driver) lands here with a settings snapshot. It
// carries the panic barrier, the error-wrapping barrier, the phase
// marker, the observation record, the plan-cache fast path, and the
// transaction funnel: tx is the explicit transaction to run inside
// (nil for auto-commit, where the core begins and finishes an implicit
// one), and sess — when the statement came through a session — handles
// the SQL transaction-control statements. Defer order matters: observe
// is registered first so it runs last; the recover barrier (registered
// last) runs first and converts any panic into err, so the implicit
// transaction's auto-finish defer sees panics as errors and rolls
// back.
func (db *DB) query(goCtx context.Context, query string, params map[string]Value, set settings, sess *Session, tx *Tx) (res *Result, err error) {
	phase := "parse"
	o := &observation{query: query, kind: "INVALID", start: time.Now(), waits: obs.NewWaitSet()}
	defer func() { db.observe(o, phase, err) }()
	defer func() {
		if err != nil && errors.Is(err, ErrWriteConflict) {
			db.waitProf.Record(obs.WaitTxnConflict, 0)
			o.waits.Record(obs.WaitTxnConflict, 0)
		}
		err = wrapQueryError(phase, err)
	}()
	if db.openErr != nil {
		phase = "open"
		return nil, db.openErr
	}

	var tr *obs.Trace
	if set.tracing || db.slowNanos.Load() > 0 || db.spanExp.Load() != nil {
		tr = obs.NewTrace()
	}

	db.lockAdminShared(o.waits)
	defer db.adminMu.RUnlock()

	// auto marks an implicit transaction this statement owns: begun by
	// ensureTx below, committed or rolled back by the finishAuto defer.
	// An explicit transaction (tx != nil on entry, or lazily begun on
	// an autocommit-off session) outlives the statement.
	auto := false
	ensureTx := func() error {
		if tx == nil {
			if sess != nil && !sess.Autocommit() {
				var berr error
				if tx, berr = sess.beginLazy(goCtx); berr != nil {
					return berr
				}
			} else {
				tx = db.autoTx()
				auto = true
			}
		}
		tx.stmtStart()
		return nil
	}
	defer func() {
		if auto {
			err = db.finishAuto(tx, err, o.waits)
		}
	}()
	defer recoverQueryError(&phase, &err)

	// Plan-cache fast path: a hit skips parse, rewrite and optimize
	// entirely. The entry is validated against a pinned catalog
	// generation — the open transaction's, or one pinned here and
	// handed to the implicit transaction on a hit — which cannot move
	// under the running plan. Only cacheable kinds (DML) live in the
	// cache, so a hit never preempts transaction-control or DDL
	// handling below; an autocommit-off session between transactions
	// skips the fast path so its lazy BEGIN goes through the full path.
	if db.cache != nil && (tx != nil || sess == nil || sess.Autocommit()) {
		key := db.cacheKey(query, set)
		cat := db.cat.Pin()
		if tx != nil {
			cat = tx.cat
		}
		if e, ok := db.cache.get(key, cat.Version()); ok {
			if tx == nil {
				tx = db.autoTxOn(cat)
				auto = true
			}
			tx.stmtStart()
			o.kind, o.root, o.trace = e.kind, e.compiled.Root, tr
			o.cacheHit = true
			if tr != nil {
				tr.PlanCacheHit = true
			}
			phase = "exec"
			return db.finishRun(goCtx, e.compiled, params, tr, o, set, tx)
		}
	}

	t0 := time.Now()
	stmt, err := sql.Parse(query)
	tr.AddPhase(obs.PhaseParse, time.Since(t0))
	if err != nil {
		return nil, err
	}
	o.kind = stmtKind(stmt)
	switch s := stmt.(type) {
	case *sql.BeginStmt:
		if tx != nil {
			return nil, fmt.Errorf("starburst: transaction already in progress (nested transactions are not supported)")
		}
		if sess == nil {
			return nil, fmt.Errorf("starburst: BEGIN requires a session or transaction handle (use DB.NewSession or DB.Begin)")
		}
		if _, err := sess.Begin(goCtx); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.CommitStmt:
		if tx == nil {
			return nil, fmt.Errorf("starburst: no transaction in progress")
		}
		phase = "commit"
		return &Result{}, tx.finish(true, o.waits)
	case *sql.RollbackStmt:
		if tx == nil {
			return nil, fmt.Errorf("starburst: no transaction in progress")
		}
		phase = "rollback"
		return &Result{}, tx.finish(false, o.waits)
	case *sql.ExplainStmt:
		if err := ensureTx(); err != nil {
			return nil, err
		}
		if s.Analyze {
			if tr == nil {
				tr = obs.NewTrace() // ANALYZE always reports phase times
			}
			o.trace = tr
			return db.explainAnalyze(goCtx, s.Stmt, &phase, params, tr, o, set, tx)
		}
		text, err := db.explain(tx.cat, s.Stmt, &phase, set)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"PLAN"}}
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			res.Rows = append(res.Rows, Row{datum.NewString(line)})
		}
		return res, nil
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt,
		*sql.DropStmt, *sql.AnalyzeStmt:
		// DDL auto-commits: it runs outside the MVCC transaction, as an
		// atomic copy-on-write catalog-generation swap whose version
		// bump invalidates affected plan-cache entries lazily. Readers
		// holding older pinned generations are never blocked. Inside an
		// explicit transaction DDL is rejected — its effects could not
		// roll back with the transaction.
		phase = "ddl"
		if tx != nil {
			return nil, fmt.Errorf("starburst: %s cannot run inside a transaction (DDL auto-commits)", o.kind)
		}
		return db.execDDLDurable(stmt, query)
	}
	if err := ensureTx(); err != nil {
		return nil, err
	}
	compiled, err := db.compile(tx.cat, stmt, &phase, tr, set)
	if err != nil {
		return nil, err
	}
	if db.cache != nil && cacheableKind(o.kind) {
		db.cache.miss()
		db.cache.put(&cacheEntry{
			key:      db.cacheKey(query, set),
			compiled: compiled,
			kind:     o.kind,
			gen:      tx.cat.Version(),
		})
	}
	o.trace, o.root = tr, compiled.Root
	phase = "exec"
	return db.finishRun(goCtx, compiled, params, tr, o, set, tx)
}

// cacheableKind reports whether plans of this statement kind are worth
// caching: exactly the kinds that compile through the optimizer and
// re-execute unchanged under fresh parameter bindings.
func cacheableKind(kind string) bool {
	switch kind {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
		return true
	}
	return false
}

// finishRun executes a compiled plan and finishes the statement: it
// records instrumentation on the observation and attaches the trace to
// the result when the session asked for one.
// starburst:locks db.adminMu:read
func (db *DB) finishRun(goCtx context.Context, compiled *plan.Compiled, params map[string]Value,
	tr *obs.Trace, o *observation, set settings, tx *Tx) (*Result, error) {
	res, instr, err := db.runObserved(goCtx, compiled, params, tr, false, set, o.waits, tx)
	o.instr = instr
	if err != nil {
		return nil, err
	}
	o.rows = res.Affected
	if o.rows == 0 {
		o.rows = int64(len(res.Rows))
	}
	if set.tracing {
		res.Trace = tr
	}
	return res, nil
}

// Stmt is a compiled statement; compilation and execution "may be
// separated in time, since the result of the compilation stage can be
// stored for future use" (section 3).
type Stmt struct {
	db    *DB
	query string
	kind  string
	// compiled is valid for catalog generation gen only; planFor
	// recompiles it when the statement runs against another one. mu
	// guards the pair (a DB-level Stmt may be shared by goroutines).
	mu       sync.Mutex
	compiled *plan.Compiled
	gen      int64
	// snap re-reads the owning DB's or Session's settings per run, so a
	// prepared statement follows later setting changes like an ad-hoc
	// statement would.
	snap func() settings
	// sess is the owning session for Session.Prepare statements, nil
	// for DB-level ones. A session-prepared statement runs inside the
	// session's open transaction, exactly like an ad-hoc statement.
	sess *Session
}

// Prepare compiles a DML statement for repeated execution under the
// DB's default settings; Session.Prepare is the session-scoped twin.
func (db *DB) Prepare(query string) (*Stmt, error) {
	return db.prepare(db.cat.Pin(), query, db.snapshot)
}

// prepare is the compilation core behind DB.Prepare, Session.Prepare
// and the recompilation of a stale Stmt, against the pinned catalog
// generation cat. It consults (and fills) the plan cache, so
// re-preparing a statement another session already compiled is a cache
// hit.
func (db *DB) prepare(cat *catalog.Catalog, query string, snap func() settings) (st *Stmt, err error) {
	set := snap()
	phase := "parse"
	defer func() { err = wrapQueryError(phase, err) }()
	defer recoverQueryError(&phase, &err)
	if db.openErr != nil {
		phase = "open"
		return nil, db.openErr
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	kind := stmtKind(stmt)
	var key string
	if db.cache != nil && cacheableKind(kind) {
		key = db.cacheKey(query, set)
		if e, ok := db.cache.get(key, cat.Version()); ok {
			return &Stmt{db: db, compiled: e.compiled, gen: cat.Version(), query: query, kind: kind, snap: snap}, nil
		}
	}
	compiled, err := db.compile(cat, stmt, &phase, nil, set)
	if err != nil {
		return nil, err
	}
	if key != "" {
		db.cache.miss()
		db.cache.put(&cacheEntry{key: key, compiled: compiled, kind: kind, gen: cat.Version()})
	}
	return &Stmt{db: db, compiled: compiled, gen: cat.Version(), query: query, kind: kind, snap: snap}, nil
}

// planFor returns the statement's plan for the catalog generation the
// running transaction pinned, recompiling when the plan was compiled
// against another one — the plan cache's validity check, applied to the
// plan a Stmt holds: DDL since may have dropped an index the plan
// probes or replaced the table it scans.
func (s *Stmt) planFor(cat *catalog.Catalog) (*plan.Compiled, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != cat.Version() {
		st, err := s.db.prepare(cat, s.query, s.snap)
		if err != nil {
			return nil, err
		}
		s.compiled, s.gen = st.compiled, st.gen
	}
	return s.compiled, nil
}

// Query executes the prepared statement under ctx with the given
// parameter bindings; it is the context-first core Run and RunContext
// wrap. Settings are re-snapshotted from the preparing DB or Session on
// every call.
func (s *Stmt) Query(goCtx context.Context, params map[string]Value) (res *Result, err error) {
	db := s.db
	set := s.snap()
	phase := "exec"
	o := &observation{query: s.query, kind: s.kind, start: time.Now(), waits: obs.NewWaitSet()}
	defer func() { db.observe(o, phase, err) }()
	defer func() {
		if err != nil && errors.Is(err, ErrWriteConflict) {
			db.waitProf.Record(obs.WaitTxnConflict, 0)
			o.waits.Record(obs.WaitTxnConflict, 0)
		}
		err = wrapQueryError(phase, err)
	}()
	if db.openErr != nil {
		phase = "open"
		return nil, db.openErr
	}
	var tr *obs.Trace
	if set.tracing || db.slowNanos.Load() > 0 || db.spanExp.Load() != nil {
		tr = obs.NewTrace()
		o.trace = tr
	}
	// Resolve the transaction before the admin latch: transaction entry
	// points acquire tx.mu before the latch, and this path must match
	// that order.
	var tx *Tx
	if s.sess != nil {
		tx = s.sess.openTx()
		if tx == nil && !s.sess.Autocommit() {
			var berr error
			if tx, berr = s.sess.beginLazy(goCtx); berr != nil {
				return nil, berr
			}
		}
	}
	if tx != nil {
		// Inside the session's open transaction: the statement joins
		// it; a failure rolls back the statement, not the transaction.
		tx.mu.Lock()
		defer tx.mu.Unlock()
		if tx.done {
			return nil, ErrTxDone
		}
		db.lockAdminShared(o.waits)
		defer db.adminMu.RUnlock()
		compiled, perr := s.planFor(tx.cat)
		if perr != nil {
			return nil, perr
		}
		o.root = compiled.Root
		tx.stmtStart()
		defer recoverQueryError(&phase, &err)
		return db.finishRun(goCtx, compiled, params, tr, o, set, tx)
	}
	db.lockAdminShared(o.waits)
	defer db.adminMu.RUnlock()
	// A prepared statement runs inside an implicit auto-commit
	// transaction, exactly like an ad-hoc one, over the generation its
	// plan is validated against.
	cat := db.cat.Pin()
	compiled, perr := s.planFor(cat)
	if perr != nil {
		return nil, perr
	}
	o.root = compiled.Root
	tx = db.autoTxOn(cat)
	tx.stmtStart()
	defer func() { err = db.finishAuto(tx, err, o.waits) }()
	defer recoverQueryError(&phase, &err)
	return db.finishRun(goCtx, compiled, params, tr, o, set, tx)
}

// Run executes a prepared statement with the given parameter bindings.
func (s *Stmt) Run(params map[string]Value) (*Result, error) {
	return s.Query(context.Background(), params)
}

// RunContext is Run under a cancellation context.
func (s *Stmt) RunContext(goCtx context.Context, params map[string]Value) (*Result, error) {
	return s.Query(goCtx, params)
}

// Plan renders the prepared statement's QEP as last compiled.
func (s *Stmt) Plan() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compiled.Root.String()
}

// compile drives the compile-time phases: translation to QGM, query
// rewrite, plan optimization (and, inside the executor, plan
// refinement). phase marks progress for the panic barrier; tr (nil-safe)
// collects per-phase wall time and rule/STAR firing counts.
// It compiles against cat, the calling transaction's pinned catalog
// generation.
// starburst:locks db.adminMu:read
func (db *DB) compile(cat *catalog.Catalog, stmt sql.Statement, phase *string, tr *obs.Trace, set settings) (*plan.Compiled, error) {
	t0 := time.Now()
	g, err := qgm.TranslateStatement(cat, stmt)
	tr.AddPhase(obs.PhaseParse, time.Since(t0)) // semantic analysis counts as parsing
	if err != nil {
		return nil, err
	}
	if !set.skipRewrite {
		*phase = "rewrite"
		t0 = time.Now()
		trace, err := db.rewriter.Rewrite(g, set.rewrite)
		tr.AddPhase(obs.PhaseRewrite, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			for rule, n := range rewrite.FiringCounts(trace) {
				tr.RuleFirings[rule] += n
			}
		}
	}
	*phase = "optimize"
	t0 = time.Now()
	compiled, err := db.opt.OptimizeConfig(g, tr, optimizer.Config{DOP: set.dop})
	tr.AddPhase(obs.PhaseOptimize, time.Since(t0))
	return compiled, err
}

// run refines and interprets a compiled plan under the DB's default
// settings and the caller's cancellation context (see runObserved in
// observe.go for the full path; run is the untraced shorthand, wrapping
// the plan in an implicit auto-commit transaction).
func (db *DB) run(goCtx context.Context, compiled *plan.Compiled, params map[string]Value) (res *Result, err error) {
	db.adminMu.RLock()
	defer db.adminMu.RUnlock()
	tx := db.autoTx()
	tx.stmtStart()
	defer func() { err = db.finishAuto(tx, err, nil) }()
	res, _, err = db.runObserved(goCtx, compiled, params, nil, false, db.snapshot(), nil, tx)
	return res, err
}

// explain renders the compilation phases for EXPLAIN <stmt>: the QGM
// after translation, the rewrite trace, the rewritten QGM, and the
// chosen plan. cat is the calling transaction's pinned catalog
// generation.
// starburst:locks db.adminMu:read
func (db *DB) explain(cat *catalog.Catalog, stmt sql.Statement, phase *string, set settings) (string, error) {
	var b strings.Builder
	g, err := qgm.TranslateStatement(cat, stmt)
	if err != nil {
		return "", err
	}
	b.WriteString("=== QGM (after parsing & semantic analysis) ===\n")
	b.WriteString(g.String())
	if !set.skipRewrite {
		*phase = "rewrite"
		trace, err := db.rewriter.Rewrite(g, set.rewrite)
		if err != nil {
			return "", err
		}
		b.WriteString("=== Query rewrite ===\n")
		if len(trace) == 0 {
			b.WriteString("(no rules fired)\n")
		}
		for _, f := range trace {
			fmt.Fprintf(&b, "rule %s fired on box %d\n", f.Rule, f.Box)
		}
		b.WriteString("=== QGM (after rewrite) ===\n")
		b.WriteString(g.String())
	}
	*phase = "optimize"
	compiled, err := db.opt.OptimizeConfig(g, nil, optimizer.Config{DOP: set.dop})
	if err != nil {
		return "", err
	}
	b.WriteString("=== Query evaluation plan ===\n")
	b.WriteString(compiled.Root.String())
	return b.String(), nil
}

// execDDL performs data definition against the live catalog. Each
// mutation publishes a fresh copy-on-write generation atomically, so
// in-flight statements keep reading their pinned generations.
func (db *DB) execDDL(stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		cols := make([]catalog.Column, len(s.Cols))
		for i, cd := range s.Cols {
			tid, ok := datum.TypeIDByName(cd.TypeName)
			if !ok {
				return nil, fmt.Errorf("starburst: unknown type %s", cd.TypeName)
			}
			cols[i] = catalog.Column{Name: strings.ToUpper(cd.Name), Type: tid, NotNull: cd.NotNull}
		}
		if _, err := db.cat.CreateTable(s.Name, cols, s.SM); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.CreateIndexStmt:
		if _, err := db.cat.CreateIndex(s.Name, s.Table, s.Cols, s.Method, s.Unique); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.CreateViewStmt:
		// Validate the definition by translating it once.
		if _, err := qgm.Translate(db.cat, s.Query); err != nil {
			return nil, err
		}
		if err := db.cat.CreateView(s.Name, s.Cols, s.Text); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.DropStmt:
		var err error
		switch s.Kind {
		case "TABLE":
			err = db.cat.DropTable(s.Name)
		case "VIEW":
			err = db.cat.DropView(s.Name)
		case "INDEX":
			err = db.cat.DropIndex(s.Table, s.Name)
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.AnalyzeStmt:
		t, ok := db.cat.Table(s.Table)
		if !ok {
			return nil, fmt.Errorf("starburst: no table %s", s.Table)
		}
		if err := db.cat.Analyze(t); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("starburst: unsupported DDL %T", stmt)
}

// MustExec is Exec that panics on error; for examples and tests.
func (db *DB) MustExec(query string, params map[string]Value) *Result {
	res, err := db.Exec(query, params)
	if err != nil {
		panic(fmt.Sprintf("starburst: %s: %v", query, err))
	}
	return res
}
