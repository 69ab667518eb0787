// Package txn implements the transaction layer under the MVCC
// redesign: transaction identity, per-transaction snapshots against a
// commit-timestamp watermark, and the serialized commit protocol that
// publishes a transaction's versions atomically. Row-version state
// itself lives in versions.go; the catalog layers version maintenance
// and rollback on top of both.
//
// Concurrency model. Statements no longer serialize behind a DB-wide
// RWMutex: any number of transactions read and write concurrently,
// each against the snapshot it captured at Begin. Only two points
// serialize: commits (commitMu, so commit timestamps form a total
// order and the watermark advances one committed transaction at a
// time) and the active-set bookkeeping (mu, a map insert/remove per
// transaction). Visibility needs nothing beyond the watermark: because
// commits are serial and a transaction's versions are stamped with
// their commit timestamp before the watermark reaches it, "created at
// or below my snapshot's watermark" is exactly "committed before I
// began".
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrWriteConflict is wrapped by every first-writer-wins conflict: the
// row a statement tried to write was written by another transaction
// that is still in flight or that committed after this transaction's
// snapshot. The losing transaction must roll back and retry.
var ErrWriteConflict = errors.New("txn: write-write conflict")

// ConflictError reports which table the losing write touched.
type ConflictError struct {
	Table string
	// Other is the competing transaction's ID when it was still in
	// flight, 0 when it had already committed past our snapshot.
	Other int64
}

func (e *ConflictError) Error() string {
	if e.Other != 0 {
		return fmt.Sprintf("txn: write-write conflict on %s with in-flight transaction %d", e.Table, e.Other)
	}
	return fmt.Sprintf("txn: write-write conflict on %s: row version committed after this transaction's snapshot", e.Table)
}

func (e *ConflictError) Unwrap() error { return ErrWriteConflict }

// Snapshot is one transaction's stable view of the database: every
// version committed at or before TS is visible, plus the transaction's
// own uncommitted writes (Own).
type Snapshot struct {
	// TS is the commit-timestamp watermark captured at Begin (or at
	// statement start under read-committed isolation).
	TS int64
	// Own is the owning transaction's ID; 0 for a detached snapshot.
	Own int64
}

// State is a transaction's lifecycle state, surfaced by SYS.TRANSACTIONS.
type State int32

// Transaction states.
const (
	StateActive State = iota
	StateCommitted
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Txn is one transaction: an identity, a snapshot, and the set of row
// versions it created or tombstoned (stamped with the commit timestamp
// at Commit). A Txn's statements run one at a time — the write-side
// fields are not synchronized across concurrent statements of the same
// transaction.
type Txn struct {
	// ID is the transaction identifier stamped into row versions this
	// transaction writes.
	ID int64
	// Snap is the visibility snapshot statements of this transaction
	// read through.
	Snap Snapshot
	// Started is the Begin wall-clock time (SYS.TRANSACTIONS age).
	Started time.Time
	// Implicit marks the auto-commit transaction wrapped around a
	// single statement, as opposed to an explicit BEGIN.
	Implicit bool

	state   atomic.Int32
	touched []*RowVersion
	stmts   atomic.Int64
}

// State reports the transaction's lifecycle state.
func (t *Txn) State() State { return State(t.state.Load()) }

// Stmts reports how many statements the transaction has run.
func (t *Txn) Stmts() int64 { return t.stmts.Load() }

// NoteStmt counts one statement against the transaction.
func (t *Txn) NoteStmt() { t.stmts.Add(1) }

// Track records a row version this transaction wrote, so Commit can
// stamp it. Called from the single statement goroutine only.
func (t *Txn) Track(v *RowVersion) { t.touched = append(t.touched, v) }

// Manager allocates transactions, owns the commit-timestamp watermark,
// and serializes commits. One Manager exists per DB.
type Manager struct {
	nextID    atomic.Int64
	watermark atomic.Int64

	// commitMu serializes the commit protocol: timestamp allocation,
	// durable commit record, version stamping and watermark publish
	// happen under it, so the watermark only ever exposes fully
	// stamped transactions.
	commitMu sync.Mutex

	mu     sync.Mutex
	active map[int64]*Txn
}

// NewManager returns a Manager with an empty history.
func NewManager() *Manager {
	return &Manager{active: map[int64]*Txn{}}
}

// Begin opens a transaction with a fresh snapshot at the current
// watermark and registers it in the active set (which pins the GC
// horizon at or below its snapshot). It must never run under the
// commit mutex: the watermark only exposes fully stamped transactions
// once commitMu is released, so a snapshot captured mid-commit could
// order against a half-published commit (lint rule 4 enforces this).
//
// starburst:snapshot-capture mgr.commitMu
func (m *Manager) Begin(implicit bool) *Txn {
	t := &Txn{
		ID:       m.nextID.Add(1),
		Started:  time.Now(),
		Implicit: implicit,
	}
	m.mu.Lock()
	// The snapshot is captured inside mu so Horizon, which also holds
	// mu, can never observe an active transaction whose snapshot is
	// older than a horizon it already reported.
	t.Snap = Snapshot{TS: m.watermark.Load(), Own: t.ID}
	m.active[t.ID] = t
	m.mu.Unlock()
	return t
}

// Refresh re-captures the transaction's snapshot at the current
// watermark: the read-committed statement boundary. Like Begin, it is
// a snapshot-capture point and must not run under the commit mutex.
//
// starburst:snapshot-capture mgr.commitMu
func (m *Manager) Refresh(t *Txn) {
	m.mu.Lock()
	t.Snap.TS = m.watermark.Load()
	m.mu.Unlock()
}

// Horizon is the global GC fence: the oldest snapshot any active
// transaction holds (the watermark itself when none are active). A
// version whose death committed at or below the horizon is invisible
// to every present and future snapshot and may be physically reaped;
// a version whose birth committed at or below it is visible to all and
// may be frozen.
func (m *Manager) Horizon() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.watermark.Load()
	for _, t := range m.active {
		if t.Snap.TS < h {
			h = t.Snap.TS
		}
	}
	return h
}

// Commit runs the serialized commit protocol: allocate the next commit
// timestamp, run the durable hook (WAL commit record + fsync) while
// the outcome is still invisible, stamp every touched version, then
// publish by advancing the watermark. A durable-hook error aborts the
// commit with the transaction's effects still private; the caller
// rolls back.
func (m *Manager) Commit(t *Txn, durable func(cts int64) error) (int64, error) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	cts := m.watermark.Load() + 1
	if durable != nil {
		if err := durable(cts); err != nil {
			return 0, err
		}
	}
	for _, v := range t.touched {
		v.stamp(t.ID, cts)
	}
	// Publish. Versions are fully stamped before any snapshot can see
	// a watermark >= cts, so "CTS <= snapshot TS" is race-free.
	m.watermark.Store(cts)
	t.state.Store(int32(StateCommitted))
	m.mu.Lock()
	delete(m.active, t.ID)
	m.mu.Unlock()
	return cts, nil
}

// Finish removes an aborted transaction from the active set. The
// caller has already rolled its writes back physically.
func (m *Manager) Finish(t *Txn) {
	t.state.Store(int32(StateAborted))
	m.mu.Lock()
	delete(m.active, t.ID)
	m.mu.Unlock()
}

// Info is one active transaction's row in SYS.TRANSACTIONS.
type Info struct {
	ID       int64
	Snapshot int64
	State    State
	Implicit bool
	Started  time.Time
	Stmts    int64
}

// Active snapshots the active-transaction set, ordered by ID.
func (m *Manager) Active() []Info {
	m.mu.Lock()
	out := make([]Info, 0, len(m.active))
	for _, t := range m.active {
		out = append(out, Info{
			ID:       t.ID,
			Snapshot: t.Snap.TS,
			State:    t.State(),
			Implicit: t.Implicit,
			Started:  t.Started,
			Stmts:    t.Stmts(),
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
