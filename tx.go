package starburst

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/txn"
)

// This file is the transaction-first half of the public API. Every
// statement the engine executes runs inside a transaction: an explicit
// one opened with DB.Begin / Session.Begin (or the SQL BEGIN
// statement), or an implicit auto-commit transaction wrapped around a
// single statement. A transaction captures an MVCC snapshot at Begin —
// a commit-timestamp watermark plus its own ID — and a pinned
// copy-on-write catalog generation, so its statements observe a stable
// view of both data and schema while concurrent writers and DDL
// proceed without blocking it.

// Transaction errors, re-exported from the internal txn package so
// callers can classify failures with errors.Is / errors.As.
var (
	// ErrTxDone is returned by operations on a transaction that has
	// already been committed or rolled back.
	ErrTxDone = errors.New("starburst: transaction has already been committed or rolled back")
	// ErrWriteConflict is wrapped by every first-writer-wins conflict:
	// the row a statement wrote was written by another transaction that
	// is still in flight or that committed after this transaction's
	// snapshot. Roll back and retry.
	ErrWriteConflict = txn.ErrWriteConflict
)

// ConflictError is the typed first-writer-wins conflict, naming the
// table and (when known) the competing in-flight transaction.
type ConflictError = txn.ConflictError

// MetricGCErrors counts version-garbage-collection passes that reported
// an error (individual row cleanups that failed; the queue keeps
// draining past them).
const MetricGCErrors = "starburst_txn_gc_errors_total"

// IsolationLevel selects how a transaction's statements capture their
// MVCC snapshots.
type IsolationLevel int

const (
	// LevelSnapshot (the default) captures one snapshot at Begin; every
	// statement of the transaction reads that same stable view,
	// regardless of what commits around it.
	LevelSnapshot IsolationLevel = iota
	// LevelReadCommitted re-captures the snapshot at each statement
	// start, so every statement sees all transactions committed before
	// it began (but never uncommitted writes).
	LevelReadCommitted
)

func (l IsolationLevel) String() string {
	switch l {
	case LevelSnapshot:
		return "snapshot"
	case LevelReadCommitted:
		return "read committed"
	default:
		return "unknown"
	}
}

// TxOption configures one transaction at Begin.
type TxOption func(*txConfig)

type txConfig struct {
	iso IsolationLevel
}

// WithIsolation selects the transaction's isolation level. The default
// is LevelSnapshot: one stable snapshot for the whole transaction.
func WithIsolation(l IsolationLevel) TxOption {
	return func(c *txConfig) { c.iso = l }
}

// Tx is one open transaction: a handle whose Query/Exec run statements
// against the transaction's snapshot and whose Commit/Rollback end it.
// A Tx is safe for use from one goroutine at a time. Statements of a
// transaction see their own uncommitted writes; no other transaction
// does until Commit publishes them atomically.
type Tx struct {
	db   *DB
	sess *Session // owning session, nil for DB-level transactions
	iso  IsolationLevel
	// cat is the catalog generation pinned at Begin: concurrent DDL
	// publishes new generations without disturbing this view.
	cat *catalog.Catalog
	// ts carries the transaction identity, snapshot and write log.
	ts *catalog.TxnState
	// durable is the commit hook run under the commit mutex while the
	// outcome is still invisible (WAL transaction commit + fsync); nil
	// for in-memory databases.
	durable func(cts int64) error

	mu   sync.Mutex
	done bool
}

// beginTx is the single transaction constructor behind DB.Begin,
// Session.Begin, the SQL BEGIN statement and the implicit auto-commit
// transaction the statement core wraps around a standalone statement.
// cat is the catalog generation the transaction reads: the statement
// core validates a plan against a generation before it knows whether it
// needs a transaction, and the transaction must read that same one.
func (db *DB) beginTx(cat *catalog.Catalog, sess *Session, implicit bool, iso IsolationLevel) *Tx {
	tx := &Tx{
		db:   db,
		sess: sess,
		iso:  iso,
		cat:  cat,
		ts:   catalog.NewTxnState(db.mgr.Begin(implicit)),
	}
	tx.durable = db.txnDurableHook(tx)
	return tx
}

// begin opens an explicit transaction for a caller outside the
// statement core, which has not yet checked that the database opened
// and that ctx is live. A nil cat pins the current generation.
func (db *DB) begin(ctx context.Context, cat *catalog.Catalog, sess *Session, opts ...TxOption) (*Tx, error) {
	if db.openErr != nil {
		return nil, db.openErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := txConfig{iso: LevelSnapshot}
	for _, o := range opts {
		o(&cfg)
	}
	if cat == nil {
		cat = db.cat.Pin()
	}
	return db.beginTx(cat, sess, false, cfg.iso), nil
}

// Begin opens an explicit transaction on the DB's settings. The
// returned Tx must be ended with Commit or Rollback; until then its
// statements all run against the snapshot captured here.
func (db *DB) Begin(ctx context.Context, opts ...TxOption) (*Tx, error) {
	return db.begin(ctx, nil, nil, opts...)
}

// ID reports the transaction identifier (as shown by SYS.TRANSACTIONS).
func (tx *Tx) ID() int64 { return tx.ts.Txn.ID }

// Isolation reports the transaction's isolation level.
func (tx *Tx) Isolation() IsolationLevel { return tx.iso }

// settings loads the owning handle's settings for one statement.
func (tx *Tx) settings() *Settings {
	if tx.sess != nil {
		return tx.sess.snapshot()
	}
	return tx.db.snapshot()
}

// stmtStart prepares the transaction for one statement: it counts the
// statement and, under read-committed isolation, refreshes the
// snapshot to the current watermark.
func (tx *Tx) stmtStart() {
	tx.ts.Txn.NoteStmt()
	if tx.iso == LevelReadCommitted {
		tx.db.mgr.Refresh(tx.ts.Txn)
	}
}

// snapshot is the visibility snapshot the transaction's next statement
// reads through.
func (tx *Tx) snapshot() txn.Snapshot { return tx.ts.Txn.Snap }

// walTxn is the WAL transaction tag the transaction's statement groups
// carry: 0 for implicit auto-commit transactions (their single
// statement group is self-committing, the pre-transaction WAL format),
// the transaction ID for explicit ones (their groups replay only after
// a transaction-commit record).
func (tx *Tx) walTxn() int64 {
	if tx.ts.Txn.Implicit {
		return 0
	}
	return tx.ts.Txn.ID
}

// Query parses, compiles and executes one statement inside the
// transaction. A failed statement rolls back its own effects but
// leaves the transaction open and usable.
func (tx *Tx) Query(ctx context.Context, query string, params map[string]Value) (*Result, error) {
	return tx.run(ctx, query, nil, params)
}

// Exec is Query under context.Background().
func (tx *Tx) Exec(query string, params map[string]Value) (*Result, error) {
	return tx.Query(context.Background(), query, params)
}

// run serializes the transaction's statements and funnels them into
// the DB statement core. It is where the lock order of every statement
// inside a transaction is fixed: tx.mu first, then (in the core) the
// admin latch.
func (tx *Tx) run(goCtx context.Context, query string, st *Stmt, params map[string]Value) (*Result, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, ErrTxDone
	}
	return tx.db.query(goCtx, query, st, false, params, tx.settings(), tx.sess, tx)
}

// Commit publishes the transaction's writes atomically: the commit
// record is made durable, every row version it wrote is stamped with
// the next commit timestamp, and the watermark advances so future
// snapshots see them. Commit returns ErrTxDone on an ended
// transaction.
func (tx *Tx) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.db.adminMu.RLock()
	defer tx.db.adminMu.RUnlock()
	return tx.finish(true, nil)
}

// Rollback undoes every write the transaction made — heap images,
// version entries and index entries are restored by the write log's
// compensating actions — and ends it. Rollback returns ErrTxDone on an
// ended transaction.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.db.adminMu.RLock()
	defer tx.db.adminMu.RUnlock()
	return tx.finish(false, nil)
}

// finish ends the transaction. Callers hold tx.mu and the shared admin
// lock; the statement core calls it directly from inside a statement
// (COMMIT / ROLLBACK statements, auto-commit), the public
// Commit/Rollback wrap it. The commit hook, rollback compensations and
// version GC all touch storage, which surfaces injected faults as
// panics, so finish carries its own recover barrier: the statement
// core's barrier has already run by the time the auto-commit defer
// calls in here.
func (tx *Tx) finish(commit bool, ws *obs.WaitSet) (err error) {
	if tx.done {
		return ErrTxDone
	}
	phase := "txn"
	defer recoverQueryError(&phase, &err)
	tx.done = true
	defer tx.detach()
	db := tx.db
	t := tx.ts.Txn
	if !commit {
		err := db.rollbackDurable(tx)
		db.txnAborted(tx)
		db.mgr.Finish(t)
		db.runGC()
		return err
	}
	if tx.ts.Writes() == 0 {
		// Read-only: nothing to publish, no commit timestamp needed.
		db.txnAborted(tx)
		db.mgr.Finish(t)
		return nil
	}
	start := time.Now()
	_, err = db.mgr.Commit(t, tx.durable)
	d := time.Since(start).Nanoseconds()
	db.waitProf.Record(obs.WaitTxnCommit, d)
	ws.Record(obs.WaitTxnCommit, d)
	if err != nil {
		rb := db.rollbackDurable(tx)
		db.txnAborted(tx)
		db.mgr.Finish(t)
		return errors.Join(err, rb)
	}
	db.cat.EnqueueGC(tx.ts)
	db.runGC()
	return nil
}

// detach clears the owning session's open-transaction slot.
func (tx *Tx) detach() {
	if tx.sess != nil {
		tx.sess.clearTx(tx)
	}
}

// finishAuto ends a statement's implicit transaction: commit when the
// statement succeeded, roll back when it failed. The statement's own
// error wins; a rollback failure is joined to it.
func (db *DB) finishAuto(tx *Tx, err error, ws *obs.WaitSet) error {
	if err != nil {
		if rb := tx.finish(false, ws); rb != nil && !errors.Is(rb, ErrTxDone) {
			err = errors.Join(err, rb)
		}
		return err
	}
	return tx.finish(true, ws)
}

// runGC opportunistically drains the version-cleanup queue against the
// oldest active snapshot. Called after every commit and rollback;
// cheap when the queue is empty. Against a durable store the GC's page
// deletes run in a WAL group of their own, which writes nothing when
// nothing is reaped.
func (db *DB) runGC() {
	if db.gcHeld {
		return
	}
	horizon := db.mgr.Horizon()
	if db.store != nil {
		if err := db.store.BeginReap(); err != nil {
			return // the store crashed: nothing more can be reaped
		}
		defer func() {
			if err := db.store.CommitStmt(); err != nil {
				db.metrics.Counter(MetricGCErrors).Inc()
			}
		}()
	}
	if err := db.cat.RunGC(horizon); err != nil {
		db.metrics.Counter(MetricGCErrors).Inc()
	}
}
