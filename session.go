package starburst

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/optimizer"
)

// This file is the session layer of the public API, and the home of
// Settings — the one per-statement configuration value. A DB is shared,
// long-lived state — catalog, rule sets, plan cache, metrics. A Session
// is a cheap per-client handle carrying its own Settings. Each
// statement loads its handle's Settings once at entry, so concurrent
// sessions never race on shared knobs and a change mid-statement cannot
// tear.

// Settings is everything that configures how one statement compiles
// and runs. The zero value is the default configuration. The DB holds
// the value its own statements and new sessions use (WithSettings,
// DB.SetSettings); a Session holds the copy it took at NewSession
// (Session.SetSettings). Both are replaced whole, never field by field:
// a statement reads one pointer, so it always runs under exactly one
// Settings value, whatever other goroutines are storing.
type Settings struct {
	// Limits are the per-statement execution budgets (rows, memory,
	// time); zero fields are unlimited.
	Limits Limits
	// Parallelism is the degree of parallelism: n > 1 lets the optimizer
	// insert exchange operators that run eligible plan subtrees on n
	// worker goroutines; n <= 1 is serial. It is a compile-time setting:
	// the plan alone decides parallelism, and a cached or prepared plan
	// is reused only under the Parallelism it was compiled for (a
	// prepared statement re-plans when it changes, either way).
	// Parallel plans produce the same result sets as serial ones (and
	// the same order, for ORDER BY queries — the exchange merge
	// preserves sort order).
	Parallelism int
	// Tracing attaches a phase Trace to every Result (phase wall times,
	// rewrite rules fired, STARs expanded, subquery-cache and rollback
	// counters).
	Tracing bool
	// SkipRewrite bypasses the query rewrite phase ("this phase could
	// be bypassed for faster query compilation at the expense of
	// potentially lower runtime performance").
	SkipRewrite bool
	// Rewrite configures the query rewrite phase; the zero value runs
	// all rule classes sequentially to fixpoint.
	Rewrite RewriteOptions
	// Audit arms self-checking compilation: the rewrite engine runs the
	// deep QGM verifier after every rule firing (returning a structured
	// *AuditError naming the offending rule on failure), and the
	// optimizer verifies every chosen plan against the QGM head. Slower;
	// intended for DBC rule/STAR development and debugging.
	Audit bool
	// CardinalityFeedback arms the cardinality-feedback loop (see
	// feedback.go).
	CardinalityFeedback bool
}

// defaultSettings is what a DB runs under until told otherwise: the
// zero value. Shared by every DB and never written.
var defaultSettings Settings

// dop is the degree of parallelism the statement plans for.
func (s *Settings) dop() int { return max(1, s.Parallelism) }

// optimizerConfig is the optimizer's share of the settings.
func (s *Settings) optimizerConfig() optimizer.Config {
	return optimizer.Config{DOP: s.dop(), Audit: s.Audit}
}

// owned returns a copy of s sharing no slice with it: a caller's write
// to its value must not reach a stored one or its memoized fingerprint.
func (s Settings) owned() *Settings {
	s.Rewrite.Classes = slices.Clone(s.Rewrite.Classes)
	return &s
}

// Settings reports the settings DB-level statements and new sessions
// run under.
func (db *DB) Settings() Settings { return *db.set.Load().owned() }

// SetSettings replaces them. Statements already running and sessions
// already open are unaffected.
func (db *DB) SetSettings(s Settings) { db.set.Store(s.owned()) }

// snapshot is one statement's settings: a single pointer load of an
// immutable value.
func (db *DB) snapshot() *Settings { return db.set.Load() }

// fpMemo is a rendered fingerprint and every input it rendered (a
// stored Settings is never written, so its pointer stands for it).
type fpMemo struct {
	set   *Settings
	rwGen int64
	opt   optimizer.Fingerprint
	fp    string
}

// fingerprint renders every setting that can change which plan the
// compiler produces for a given statement text: the degree of
// parallelism, the rewrite configuration (including the rule-set
// generation), and the optimizer's side — its switches, STAR-array
// generation and audit mode. Statements compiled under different
// fingerprints never share a plan-cache entry; see plancache.go. The
// last rendering is memoized with its inputs (db.fp).
func (db *DB) fingerprint(set *Settings) string {
	k := fpMemo{set: set, rwGen: db.rewriter.Generation(), opt: db.opt.Fingerprint(set.optimizerConfig())}
	if m := db.fp.Load(); m != nil && m.set == k.set && m.rwGen == k.rwGen && m.opt == k.opt {
		return m.fp
	}
	rw := "off"
	if !set.SkipRewrite {
		r := &set.Rewrite
		rw = fmt.Sprintf("st%v,so%v,b%d,cls[%s],seed%d,gen%d",
			r.Strategy, r.Search, r.Budget, strings.Join(r.Classes, "+"),
			r.Seed, k.rwGen)
	}
	memo := k
	memo.fp = fmt.Sprintf("dop=%d|rw=%s|opt=%+v", set.dop(), rw, k.opt)
	db.fp.Store(&memo)
	return memo.fp
}

// Session is an independent client handle on a shared DB. Sessions are
// cheap to create, safe for use from one goroutine at a time, and
// isolated from each other: Settings changed on one session affect
// that session alone, while DDL, data, extensions and the plan cache
// remain shared through the DB. Any number of sessions may execute
// statements concurrently; see the concurrency contract on DB.
//
// A session carries at most one open transaction. Session.Begin (or
// the SQL BEGIN statement) opens it; until Commit or Rollback every
// statement of the session runs inside it. With autocommit switched off
// (see SetAutocommit) the first statement opens a transaction
// implicitly and COMMIT / ROLLBACK ends it.
type Session struct {
	db *DB
	// id identifies the session in SYS.SESSIONS.
	id int64
	// set is this session's Settings, inherited from the DB at
	// NewSession and replaced whole by SetSettings.
	set atomic.Pointer[Settings]

	mu sync.Mutex
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

// NewSession opens a session initialized with the DB's current
// Settings; later DB.SetSettings calls do not reach it. Sessions appear
// in SYS.SESSIONS until Closed.
func (db *DB) NewSession() *Session {
	s := &Session{db: db, autocommit: true}
	s.set.Store(db.snapshot())
	db.sessions.add(s)
	return s
}

// ID returns the session's SYS.SESSIONS identifier.
func (s *Session) ID() int64 { return s.id }

// Close removes the session from SYS.SESSIONS. The handle stays usable
// (statements still execute) but is no longer listed; Close is
// idempotent.
func (s *Session) Close() { s.db.sessions.remove(s.id) }

// DB returns the shared database this session is a handle on.
func (s *Session) DB() *DB { return s.db }

// Settings reports this session's settings.
func (s *Session) Settings() Settings { return *s.set.Load().owned() }

// SetSettings replaces this session's settings. Other sessions and the
// DB's own are unaffected.
func (s *Session) SetSettings(set Settings) { s.set.Store(set.owned()) }

// snapshot returns this session's settings for one statement.
func (s *Session) snapshot() *Settings { return s.set.Load() }

// Query parses, compiles and executes one statement under this
// session's settings. While the session has an open transaction the
// statement runs inside it; otherwise it runs in its own auto-commit
// transaction (or, with autocommit off, opens the session's next
// transaction implicitly).
func (s *Session) Query(ctx context.Context, query string, params map[string]Value) (*Result, error) {
	return s.run(ctx, query, nil, params)
}

// Exec is Query under context.Background().
func (s *Session) Exec(query string, params map[string]Value) (*Result, error) {
	return s.Query(context.Background(), query, params)
}

// run is the session's handle resolution, shared by ad-hoc statements
// and prepared ones (st non-nil): inside the open transaction when
// there is one, else straight into the statement core. It brackets the
// statement for the SYS.SESSIONS live view.
func (s *Session) run(ctx context.Context, query string, st *Stmt, params map[string]Value) (*Result, error) {
	s.cur.Store(&query)
	s.stmts.Add(1)
	defer s.cur.Store(nil)
	if tx := s.openTx(); tx != nil {
		return tx.run(ctx, query, st, params)
	}
	return s.db.query(ctx, query, st, false, params, s.snapshot(), s, nil)
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
	tx, err := s.db.begin(ctx, nil, s, opts...)
	if err != nil {
		return nil, err
	}
	s.tx = tx
	return tx, nil
}

// beginLazy opens the session's next transaction implicitly, over the
// catalog generation cat the statement already pinned: the statement
// core calls it for the first statement after a commit or rollback when
// autocommit is off.
func (s *Session) beginLazy(ctx context.Context, cat *catalog.Catalog) (*Tx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return s.tx, nil
	}
	tx, err := s.db.begin(ctx, cat, s)
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
// returned Stmt re-reads this session's settings on every run and
// joins the session's open transaction, if any, when run.
func (s *Session) Prepare(query string) (*Stmt, error) {
	return s.db.newStmt(query, s, s.snapshot())
}

// ---------------------------------------------------------------------
// Functional options for Open

// Option configures a DB at Open time.
type Option func(*DB)

// WithSettings opens the DB under the given Settings (see
// DB.SetSettings); Open() alone is Open(WithSettings(Settings{})).
func WithSettings(s Settings) Option {
	return func(db *DB) { db.SetSettings(s) }
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

// Vectorized reports whether statements compile predicate and
// aggregate kernels that run over column vectors; whatever has no
// kernel runs on the row evaluators inside the same operators. Always
// true outside this package's own tests, which switch kernels off to
// run every predicate and aggregate on the row evaluators, the
// reference the kernels are compared against.
func (db *DB) Vectorized() bool { return !db.kernelsOff }
