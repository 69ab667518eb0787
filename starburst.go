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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/txn"
	"repro/internal/verify"
)

// Re-exported core types, so DBC extensions are written against the
// public package alone.
type (
	// Value is a typed datum: 24 bytes (type tag, one 8-byte payload,
	// one pointer; a STRING points at its bytes). It is not comparable
	// with ==, reflect.DeepEqual or as a map key, which would compare
	// string payloads by address; compare what Type, Int, Float, Str or
	// String return instead.
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
	// Settings.Tracing) or the statement was EXPLAIN ANALYZE.
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
// on a Session (see NewSession); DB.SetSettings adjusts what DB-level
// statements run under and new sessions inherit.
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

	// set is the Settings DB-level statements run under and new sessions
	// inherit; replaced whole by SetSettings, never nil after Open.
	set atomic.Pointer[Settings]
	fp  atomic.Pointer[fpMemo] // the last settings fingerprint rendered
	// faults is the attached fault injector, nil until InjectFaults.
	faults *storage.FaultInjector
	// parObs is the exec-layer parallelism hooks backed by the metrics
	// registry; built once at Open, shared by every statement.
	parObs *exec.ParallelObs
	// colWidth, when nonzero, overrides the executor's columnar batch
	// width, and kernelsOff builds statements without kernels, so the
	// same operators run every predicate and aggregate on the row
	// evaluators — the reference colequiv_test.go compares the kernels
	// against. Only tests set either, before running statements.
	colWidth   int
	kernelsOff bool
	// gcHeld, set only by tests, makes runGC do nothing: the version GC
	// is held back, as an open snapshot would hold it.
	gcHeld bool

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
	// stmtTrees holds the live prepared statements' tree slots, for DDL
	// and Close to release (the plan cache's die with their entries).
	stmtTrees stmtSlots
}

// Open creates an empty in-memory database with the base rule sets,
// configured by the given options, e.g.:
//
//	db := starburst.Open(
//		starburst.WithPlanCache(256),
//		starburst.WithSettings(starburst.Settings{
//			Parallelism: 4,
//			Limits:      starburst.Limits{MaxRows: 1e6},
//		}),
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
	db.parObs = db.newParallelObs()
	db.waitProf = obs.NewWaitProfile()
	db.set.Store(&defaultSettings)
	for _, opt := range opts {
		opt(db)
	}
	db.recoverStore()
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

// AddSTARAlternative extends the optimizer's STAR array. The input
// plans an alternative is passed (OptArgs.Left, Right and Plans) are
// valid only during the compilation that passes them: the alternative
// may return them inside new nodes, but must not keep them after it
// returns, since later compilations reuse their memory.
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

// Query parses, compiles and executes one statement under ctx. The
// statement runs inside an implicit auto-commit transaction: committed
// when it succeeds, rolled back when it fails. Params bind host
// language variables (":name" references). Cancelling ctx aborts the
// statement at the next tuple boundary. Errors are reported as
// *QueryError.
func (db *DB) Query(ctx context.Context, query string, params map[string]Value) (*Result, error) {
	return db.query(ctx, query, nil, false, params, db.snapshot(), nil, nil)
}

// Exec is Query under context.Background(), kept as the short form for
// examples, tests and non-cancellable callers.
func (db *DB) Exec(query string, params map[string]Value) (*Result, error) {
	return db.Query(context.Background(), query, params)
}

// query is the single statement core: every public entry point
// (DB/Session/Tx.Query and .Exec, Stmt.Query, both Prepares, the
// database/sql driver) lands here with its handle's Settings. It
// carries the panic barrier, the error-wrapping barrier, the phase
// marker, the observation record, the plan lookup-or-compile step, and
// the transaction funnel.
//
// The statement source is its SQL text plus, for a prepared statement,
// the handle st: st's private plan slot is consulted by the same
// "valid at the pinned catalog generation, under these settings?" step
// as the shared plan cache, ahead of it, and filled by the same store
// step. compileOnly
// (Prepare) stops after that step: the paper's fork in time —
// "compilation and execution may be separated in time" (section 3) — is
// this one flag, not a second path.
//
// tx is the explicit transaction to run inside (nil for auto-commit,
// where the core begins and finishes an implicit one), and sess — when
// the statement came through a session — handles the SQL
// transaction-control statements. Lock order: a caller inside a
// transaction holds tx.mu (Tx.run) before the admin latch taken here.
// Defer order matters: observe is registered first so it runs last; the
// recover barrier (registered last) runs first and converts any panic
// into err, so the implicit transaction's auto-finish defer sees panics
// as errors and rolls back.
func (db *DB) query(goCtx context.Context, query string, st *Stmt, compileOnly bool, params map[string]Value,
	set *Settings, sess *Session, tx *Tx) (res *Result, err error) {
	phase := "parse"
	o := db.newObservation(query, set)
	var lifted sql.Lifted // the VALUES cells the key lifts out of query
	o.norm, lifted, _ = sql.Key(query)
	defer func() {
		if !compileOnly {
			db.observe(o, phase, err)
		}
		db.recycle(o)
	}()
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
	if !compileOnly && (set.Tracing || db.slowNanos.Load() > 0 || db.spanExp.Load() != nil) {
		tr = obs.NewTrace()
	}

	db.lockAdminShared(&o.waits)
	defer db.adminMu.RUnlock()

	// cat is the catalog generation the whole statement reads: the open
	// transaction's, or one pinned here and handed to whichever
	// transaction ensureTx begins, so the schema cannot move under a
	// plan the lookup below validated against it.
	var cat *catalog.Catalog
	if tx != nil {
		cat = tx.cat
	} else {
		cat = db.cat.Pin()
	}
	// auto marks an implicit transaction this statement owns: begun by
	// ensureTx, committed or rolled back by the finishAuto defer. An
	// explicit transaction (tx != nil on entry, or lazily begun on an
	// autocommit-off session) outlives the statement.
	auto := false
	ensureTx := func() (berr error) {
		if tx == nil {
			if sess != nil && !sess.Autocommit() {
				if tx, berr = sess.beginLazy(goCtx, cat); berr != nil {
					return berr
				}
			} else {
				tx, auto = db.beginTx(cat, nil, true, LevelSnapshot), true
			}
		}
		tx.stmtStart()
		return nil
	}
	defer func() {
		if auto {
			err = db.finishAuto(tx, err, &o.waits)
		}
	}()
	defer recoverQueryError(&phase, &err)

	// Lookup: a plan valid at cat's generation and under set's
	// fingerprint skips parse, rewrite and optimize entirely — the
	// prepared handle's own, else the shared cache's. Only cacheable
	// kinds (DML) are ever stored, so a hit never preempts the
	// transaction-control or DDL handling below.
	var fp string
	if st != nil || db.cache != nil {
		fp = db.fingerprint(set)
	}
	compiled, kind, trees := st.plan(cat.Version(), fp)
	held := compiled != nil // the handle's own plan: nothing to store back
	var key planKey
	if compiled == nil && db.cache != nil && o.norm != "" {
		key = planKey{o.norm, fp}
		if e, ok := db.cache.get(key, cat.Version()); ok {
			compiled, kind, trees = e.compiled, e.kind, &e.trees
			o.cacheHit = true
			if tr != nil {
				tr.PlanCacheHit = true
			}
		}
	}
	var stmt sql.Statement
	var explain *strings.Builder // non-nil for plain EXPLAIN
	analyze := false             // EXPLAIN ANALYZE
	if compiled != nil {
		o.kind = kind
	} else {
		t0 := time.Now()
		stmt, err = sql.ParseLifted(query, lifted)
		tr.AddPhase(obs.PhaseParse, time.Since(t0))
		if err != nil {
			return nil, err
		}
		o.kind = stmtKind(stmt)
		if compileOnly && !cacheableKind(o.kind) {
			return nil, fmt.Errorf("starburst: cannot prepare %s: only SELECT, INSERT, UPDATE and DELETE compile to a plan", o.kind)
		}
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
			return &Result{}, tx.finish(true, &o.waits)
		case *sql.RollbackStmt:
			if tx == nil {
				return nil, fmt.Errorf("starburst: no transaction in progress")
			}
			phase = "rollback"
			return &Result{}, tx.finish(false, &o.waits)
		case *sql.ExplainStmt:
			// EXPLAIN compiles its inner statement like any other; plain
			// EXPLAIN renders what compile records, ANALYZE goes on to run.
			stmt = s.Stmt
			if analyze = s.Analyze; !analyze {
				explain = &strings.Builder{}
			} else if tr == nil {
				tr = obs.NewTrace() // ANALYZE always reports phase times
			}
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
			res, err := db.execDDLDurable(stmt, query)
			db.releaseTrees(db.cat.Version())
			return res, err
		}
	}
	// From here on the statement is one that compiles to a plan and,
	// unless this is Prepare, runs it inside a transaction over cat.
	if !compileOnly {
		if err := ensureTx(); err != nil {
			return nil, err
		}
	}
	if compiled == nil {
		if compiled, err = db.compile(cat, stmt, &phase, tr, set, explain); err != nil {
			return nil, err
		}
		if explain != nil {
			return linesResult("PLAN", explain.String()), nil
		}
		if db.cache != nil && cacheableKind(o.kind) {
			db.cache.miss()
			e := &cacheEntry{key: key, compiled: compiled, kind: o.kind, gen: cat.Version()}
			db.cache.put(e)
			trees = &e.trees
		}
	}
	if !held {
		if own := st.store(compiled, o.kind, cat.Version(), fp); trees == nil {
			trees = own
		}
	}
	if compileOnly {
		return nil, nil
	}
	o.trace, o.root = tr, compiled.Root
	phase = "exec"
	if analyze {
		return db.explainAnalyze(goCtx, compiled, params, tr, o, tx)
	}
	return db.runObserved(goCtx, compiled, trees, params, lifted.Args, tr, o, tx, false)
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

// linesResult renders multi-line text as a one-column result, one row
// per line (EXPLAIN and EXPLAIN ANALYZE output).
func linesResult(column, text string) *Result {
	res := &Result{Columns: []string{column}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, Row{NewString(line)})
	}
	return res
}

// Stmt is a compiled statement; compilation and execution "may be
// separated in time, since the result of the compilation stage can be
// stored for future use" (section 3). It is a handle on the statement
// core, not a second way through it: running it is running its text
// with a plan already in hand. A run after DDL, or under changed
// settings (another Parallelism, say), re-plans, as a plan-cache lookup
// would miss.
type Stmt struct {
	db *DB
	// sess is the owning session for Session.Prepare statements, nil
	// for DB-level ones. Each run re-reads the owner's Settings and, on a
	// session, joins its open transaction — exactly like an ad-hoc
	// statement on the same handle.
	sess  *Session
	query string
	// The plan slot: compiled is valid for catalog generation gen and
	// settings fingerprint fp only, exactly like a plan-cache entry; the
	// statement core recompiles it when the statement runs against
	// another generation (DDL since may have dropped an index the plan
	// probes or replaced the table it scans) or under other settings
	// (a changed Parallelism plans a different exchange, or none).
	// trees keeps the plan's idle operator tree, and dies when the slot
	// is refilled. mu guards the slot — a DB-level Stmt may be shared by
	// goroutines.
	mu       sync.Mutex
	compiled *plan.Compiled
	kind     string
	gen      int64
	fp       string
	trees    *treeSlot
}

// Prepare compiles a DML statement for repeated execution under the
// DB's settings; Session.Prepare is the session-scoped twin. It consults
// (and fills) the plan cache, so re-preparing a statement another
// session already compiled is a cache hit.
func (db *DB) Prepare(query string) (*Stmt, error) {
	return db.newStmt(query, nil, db.snapshot())
}

// newStmt runs the statement core's lookup-or-compile step, and nothing
// after it, into a fresh handle owned by sess (nil: the DB).
func (db *DB) newStmt(query string, sess *Session, set *Settings) (*Stmt, error) {
	st := &Stmt{db: db, sess: sess, query: query}
	if _, err := db.query(context.Background(), query, st, true, nil, set, nil, nil); err != nil {
		return nil, err
	}
	// A handle dropped without a re-prepare takes its tree with it.
	runtime.SetFinalizer(st, (*Stmt).drop)
	return st, nil
}

// drop releases the handle's tree.
func (s *Stmt) drop() {
	s.mu.Lock()
	trees := s.trees
	s.mu.Unlock()
	s.db.stmtTrees.drop(trees)
}

// plan returns the handle's plan, statement kind and tree slot if it
// holds a plan compiled against catalog generation gen under settings
// fingerprint fp. Nil-safe: an ad-hoc statement has no handle and never
// a private plan.
func (s *Stmt) plan(gen int64, fp string) (*plan.Compiled, string, *treeSlot) {
	if s == nil {
		return nil, "", nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen || s.fp != fp {
		return nil, "", nil
	}
	return s.compiled, s.kind, s.trees
}

// store fills the plan slot (nil-safe, like plan) and returns its new
// tree slot; the previous plan's tree dies.
func (s *Stmt) store(compiled *plan.Compiled, kind string, gen int64, fp string) *treeSlot {
	if s == nil {
		return nil
	}
	trees := &treeSlot{}
	s.db.stmtTrees.add(trees, gen)
	s.mu.Lock()
	old := s.trees
	s.compiled, s.kind, s.gen, s.fp, s.trees = compiled, kind, gen, fp, trees
	s.mu.Unlock()
	s.db.stmtTrees.drop(old)
	return trees
}

// Query executes the prepared statement under ctx with the given
// parameter bindings, through the owning handle: a session's statement
// resolves its transaction like Session.Query does.
func (s *Stmt) Query(ctx context.Context, params map[string]Value) (*Result, error) {
	if s.sess != nil {
		return s.sess.run(ctx, s.query, s, params)
	}
	return s.db.query(ctx, s.query, s, false, params, s.db.snapshot(), nil, nil)
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
// collects per-phase wall time and rule/STAR firing counts; explain,
// non-nil only for EXPLAIN <stmt>, collects what that renders: the QGM
// after translation, the rewrite trace, the rewritten QGM, and the
// chosen plan. It compiles against cat, the calling statement's pinned
// catalog generation.
// starburst:locks db.adminMu:read
func (db *DB) compile(cat *catalog.Catalog, stmt sql.Statement, phase *string, tr *obs.Trace, set *Settings, explain *strings.Builder) (*plan.Compiled, error) {
	t0 := time.Now()
	g, err := qgm.TranslateStatement(cat, stmt)
	if err == nil {
		if rep := verify.Graph(g); rep != nil {
			err = rep
		}
	}
	tr.AddPhase(obs.PhaseParse, time.Since(t0)) // semantic analysis counts as parsing
	if err != nil {
		return nil, err
	}
	if explain != nil {
		explain.WriteString("=== QGM (after parsing & semantic analysis) ===\n" + g.String())
	}
	if !set.SkipRewrite {
		*phase = "rewrite"
		t0 = time.Now()
		trace, err := db.rewriter.Run(g, set.Rewrite, set.Audit)
		tr.AddPhase(obs.PhaseRewrite, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			for rule, n := range rewrite.FiringCounts(trace) {
				tr.RuleFirings[rule] += n
			}
		}
		if explain != nil {
			explain.WriteString("=== Query rewrite ===\n")
			if len(trace) == 0 {
				explain.WriteString("(no rules fired)\n")
			}
			for _, f := range trace {
				fmt.Fprintf(explain, "rule %s fired on box %d\n", f.Rule, f.Box)
			}
			explain.WriteString("=== QGM (after rewrite) ===\n" + g.String())
		}
	}
	*phase = "optimize"
	t0 = time.Now()
	compiled, err := db.opt.OptimizeConfig(g, tr, set.optimizerConfig())
	tr.AddPhase(obs.PhaseOptimize, time.Since(t0))
	if err == nil && explain != nil {
		explain.WriteString("=== Query evaluation plan ===\n" + compiled.Root.String())
	}
	return compiled, err
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
			cols[i] = catalog.Column{Name: ident.Upper(cd.Name), Type: tid, NotNull: cd.NotNull}
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
		// Refuse a definition no query over the view could use.
		if err := qgm.TranslateView(db.cat, s.Name, s.Cols, s.Query); err != nil {
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
