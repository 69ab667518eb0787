package starburst

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rewrite"
)

// This file is the session layer of the public API. A DB is shared,
// long-lived state — catalog, rule sets, plan cache, metrics. A Session
// is a cheap per-client handle carrying the tuning knobs that used to
// live only on the DB: degree of parallelism, per-statement budgets,
// tracing, rewrite configuration. Each statement snapshots its
// session's settings once at entry, so concurrent sessions never race
// on shared knobs and a setting change mid-statement cannot tear.

// settings is the per-statement snapshot of every knob that influences
// how one statement compiles and runs. It is taken once at statement
// entry and threaded by value through compile and execution.
type settings struct {
	// limits are the execution budgets (rows, memory, time).
	limits Limits
	// dop is the degree of parallelism the optimizer plans for.
	dop int
	// tracing attaches a phase trace to the statement's Result.
	tracing bool
	// skipRewrite bypasses the query rewrite phase.
	skipRewrite bool
	// rewrite configures the rewrite engine when it runs.
	rewrite rewrite.Options
	// vectorize enables columnar execution over eligible operators.
	vectorize bool
}

// snapshot captures the DB-wide defaults as one statement's settings.
func (db *DB) snapshot() settings {
	return settings{
		limits:      db.GetLimits(),
		dop:         db.Parallelism(),
		tracing:     db.tracing.Load(),
		skipRewrite: db.SkipRewrite,
		rewrite:     db.Rewrite,
		vectorize:   db.Vectorized(),
	}
}

// fingerprint renders every setting that can change which plan the
// compiler produces for a given statement text: the session's degree of
// parallelism, the rewrite configuration (including the rule-set
// generation), and the optimizer-wide switches and STAR-array
// generation. Statements compiled under different fingerprints never
// share a plan-cache entry; see plancache.go.
func (db *DB) fingerprint(set settings) string {
	rw := "off"
	if !set.skipRewrite {
		r := set.rewrite
		rw = fmt.Sprintf("st%v,so%v,b%d,cls[%s],seed%d,val%t,aud%t,gen%d",
			r.Strategy, r.Search, r.Budget, strings.Join(r.Classes, "+"),
			r.Seed, r.Validate, r.Audit, db.rewriter.Generation())
	}
	return fmt.Sprintf("dop=%d|rw=%s|opt=%s", set.dop, rw, db.opt.Fingerprint())
}

// cacheKey keys the plan cache: normalized statement text plus the
// settings fingerprint, separated by a byte that cannot appear in SQL.
func (db *DB) cacheKey(query string, set settings) string {
	return normalizeSQL(query) + "\x00" + db.fingerprint(set)
}

// Session is an independent client handle on a shared DB. Sessions are
// cheap to create, safe for use from one goroutine at a time, and
// isolated from each other: a setting changed on one session affects
// that session alone, while DDL, data, extensions and the plan cache
// remain shared through the DB. Any number of sessions may execute
// statements concurrently; see the concurrency contract on DB.Query.
//
// A session carries at most one open transaction. Session.Begin (or
// the SQL BEGIN statement) opens it; until Commit or Rollback every
// Session.Query/Exec runs inside it. With autocommit switched off (see
// SetAutocommit) the first statement opens a transaction implicitly
// and COMMIT / ROLLBACK ends it.
type Session struct {
	db *DB
	// id identifies the session in SYS.SESSIONS.
	id int64

	mu  sync.Mutex
	set settings
	// tx is the session's open transaction, nil between transactions.
	tx *Tx
	// autocommit, when false, makes the first statement after a commit
	// or rollback begin a new transaction implicitly (the classic
	// chained mode); true (the default) wraps each standalone statement
	// in its own auto-commit transaction.
	autocommit bool

	// cur is the in-flight statement text, nil when idle; stmts counts
	// statements executed. Both feed SYS.SESSIONS.
	cur   atomic.Pointer[string]
	stmts atomic.Int64
}

// NewSession opens a session initialized with the DB's current default
// settings. Sessions appear in SYS.SESSIONS until Closed.
func (db *DB) NewSession() *Session {
	s := &Session{db: db, set: db.snapshot(), autocommit: true}
	db.sessions.add(s)
	return s
}

// ID returns the session's SYS.SESSIONS identifier.
func (s *Session) ID() int64 { return s.id }

// Close removes the session from SYS.SESSIONS. The handle stays usable
// (statements still execute) but is no longer listed; Close is
// idempotent.
func (s *Session) Close() { s.db.sessions.remove(s.id) }

// begin/end bracket one statement for the SYS.SESSIONS live view.
func (s *Session) begin(query string) {
	s.cur.Store(&query)
	s.stmts.Add(1)
}

func (s *Session) end() { s.cur.Store(nil) }

// DB returns the shared database this session is a handle on.
func (s *Session) DB() *DB { return s.db }

// snapshot returns this session's settings for one statement.
func (s *Session) snapshot() settings {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set
}

// Query parses, compiles and executes one statement under this
// session's settings. It is the session-level twin of DB.Query. While
// the session has an open transaction the statement runs inside it;
// otherwise it runs in its own auto-commit transaction (or, with
// autocommit off, opens the session's next transaction implicitly).
func (s *Session) Query(ctx context.Context, query string, params map[string]Value) (*Result, error) {
	s.begin(query)
	defer s.end()
	if tx := s.openTx(); tx != nil {
		return tx.run(ctx, query, params, s.snapshot())
	}
	return s.db.query(ctx, query, params, s.snapshot(), s, nil)
}

// Exec is Query without a context, kept for symmetry with DB.Exec.
func (s *Session) Exec(query string, params map[string]Value) (*Result, error) {
	return s.Query(context.Background(), query, params)
}

// Begin opens an explicit transaction on this session. Until Commit or
// Rollback, every statement the session executes runs inside it; a
// second Begin before then is an error. The SQL BEGIN statement is
// equivalent.
func (s *Session) Begin(ctx context.Context, opts ...TxOption) (*Tx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return nil, fmt.Errorf("starburst: transaction already in progress on this session")
	}
	tx, err := s.db.beginTx(ctx, s.snapshot, s, false, opts...)
	if err != nil {
		return nil, err
	}
	s.tx = tx
	return tx, nil
}

// beginLazy opens the session's next transaction implicitly: the
// statement core calls it for the first statement after a commit or
// rollback when autocommit is off.
func (s *Session) beginLazy(ctx context.Context) (*Tx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return s.tx, nil
	}
	tx, err := s.db.beginTx(ctx, s.snapshot, s, false)
	if err != nil {
		return nil, err
	}
	s.tx = tx
	return tx, nil
}

// openTx returns the session's open transaction, nil when idle.
func (s *Session) openTx() *Tx {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx
}

// Tx returns the session's open transaction, or nil when the session
// is between transactions.
func (s *Session) Tx() *Tx { return s.openTx() }

// clearTx detaches a finished transaction from the session.
func (s *Session) clearTx(tx *Tx) {
	s.mu.Lock()
	if s.tx == tx {
		s.tx = nil
	}
	s.mu.Unlock()
}

// SetAutocommit switches the session between auto-commit mode (the
// default: each standalone statement is its own transaction) and
// chained mode (off: the first statement after a commit or rollback
// implicitly begins the next transaction, which stays open until
// COMMIT or ROLLBACK). An already-open transaction is unaffected.
func (s *Session) SetAutocommit(on bool) {
	s.mu.Lock()
	s.autocommit = on
	s.mu.Unlock()
}

// Autocommit reports whether the session is in auto-commit mode.
func (s *Session) Autocommit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.autocommit
}

// Prepare compiles a DML statement for repeated execution; the
// returned Stmt re-snapshots this session's settings on every run and
// joins the session's open transaction, if any, when run.
func (s *Session) Prepare(query string) (*Stmt, error) {
	st, err := s.db.prepare(s.db.cat.Pin(), query, s.snapshot)
	if err != nil {
		return nil, err
	}
	st.sess = s
	return st, nil
}

// SetParallelism sets this session's degree of parallelism; n <= 1
// plans serial execution. Other sessions and the DB default are
// unaffected.
func (s *Session) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.set.dop = n
	s.mu.Unlock()
}

// Parallelism reports this session's degree of parallelism.
func (s *Session) Parallelism() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.dop
}

// SetLimits installs this session's per-statement execution budgets;
// the zero Limits removes them.
func (s *Session) SetLimits(l Limits) {
	s.mu.Lock()
	s.set.limits = l
	s.mu.Unlock()
}

// GetLimits reports this session's per-statement budgets.
func (s *Session) GetLimits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.limits
}

// SetTracing arms per-statement phase tracing for this session.
func (s *Session) SetTracing(on bool) {
	s.mu.Lock()
	s.set.tracing = on
	s.mu.Unlock()
}

// Tracing reports whether this session collects phase traces.
func (s *Session) Tracing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.tracing
}

// SetVectorized switches columnar (vectorized) execution on or off for
// this session. On by default; plans are unaffected — the switch picks
// between columnar and row operators at execution time, per operator.
func (s *Session) SetVectorized(on bool) {
	s.mu.Lock()
	s.set.vectorize = on
	s.mu.Unlock()
}

// Vectorized reports whether this session executes columnar.
func (s *Session) Vectorized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.vectorize
}

// SetSkipRewrite bypasses the query rewrite phase for this session.
func (s *Session) SetSkipRewrite(skip bool) {
	s.mu.Lock()
	s.set.skipRewrite = skip
	s.mu.Unlock()
}

// SetRewriteOptions configures the rewrite engine for this session.
func (s *Session) SetRewriteOptions(o RewriteOptions) {
	s.mu.Lock()
	s.set.rewrite = o
	s.mu.Unlock()
}

// ---------------------------------------------------------------------
// Functional options for Open

// Option configures a DB at Open time.
type Option func(*DB)

// WithParallelism sets the DB-wide default degree of parallelism (see
// SetParallelism).
func WithParallelism(n int) Option {
	return func(db *DB) { db.SetParallelism(n) }
}

// WithLimits sets the DB-wide default per-statement budgets (see
// SetLimits).
func WithLimits(l Limits) Option {
	return func(db *DB) { db.SetLimits(l) }
}

// WithPlanCache enables the shared plan cache, bounded to capacity
// compiled statements; capacity <= 0 leaves the cache disabled. See
// plancache.go for keying and invalidation.
func WithPlanCache(capacity int) Option {
	return func(db *DB) {
		if capacity > 0 {
			db.cache = newPlanCache(capacity, db.metrics)
		}
	}
}

// WithAudit opens the DB with self-checking compilation armed (see
// SetAudit).
func WithAudit(on bool) Option {
	return func(db *DB) { db.SetAudit(on) }
}

// WithVectorized sets the DB-wide default for columnar execution (on
// unless disabled; see Session.SetVectorized).
func WithVectorized(on bool) Option {
	return func(db *DB) { db.SetVectorized(on) }
}

// SetVectorized sets the DB-wide default for columnar (vectorized)
// execution. On by default: eligible scan, filter, project and
// aggregate operators run fused per-type kernels over column vectors,
// falling back to row execution per operator when an expression has no
// kernel. Plans and results are unaffected.
func (db *DB) SetVectorized(on bool) { db.vecDisabled.Store(!on) }

// Vectorized reports the DB-wide columnar execution default.
func (db *DB) Vectorized() bool { return !db.vecDisabled.Load() }
