package starburst

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/ident"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage/disk"
)

// This file wires the durable disk store (internal/storage/disk) into
// the engine: the WithDataDir option, crash recovery at open (snapshot
// schema recreation + WAL DDL/data replay + index rebuild), the
// statement bracket for DDL, and DB.Close.
//
// Durability boundary: tables created USING DISK persist rows; tables
// under any other manager (the in-memory heap — HEAP, and FIXED, its
// fixed-length configuration — or a DBC's) persist schema only and
// come back empty — the MEMORY-table convention. Indexes are rebuilt
// from table data at every open, never persisted. Table statistics are
// volatile; rerun ANALYZE after reopening.

// WithDataDir makes the database durable: the directory holds one page
// file per DISK table, a write-ahead log, and a catalog snapshot.
// Opening an existing directory recovers it (committed statements
// survive, uncommitted ones vanish). The DISK storage manager is
// registered; HEAP remains the default unless WithDefaultStorage says
// otherwise. A DB opened with a data directory should be Closed.
//
// Open cannot return an error, so a failed attach or recovery is
// reported by every subsequent statement (and by DB.OpenErr).
func WithDataDir(dir string) Option {
	return func(db *DB) { db.attachStore(dir, disk.OSFS{}, disk.Options{}) }
}

// withDataFS is WithDataDir over an arbitrary filesystem; crash tests
// use it with a disk.MemFS.
func withDataFS(dir string, fsys disk.FS, opts disk.Options) Option {
	return func(db *DB) { db.attachStore(dir, fsys, opts) }
}

// WithDefaultStorage selects the storage manager an empty USING clause
// resolves to (e.g. "DISK" to make every new table durable). Order
// matters: place it after WithDataDir.
//
// Reopen a data directory with the same default as when it was written:
// replayed CREATE TABLE statements resolve their empty USING clause
// against the default active during recovery.
func WithDefaultStorage(name string) Option {
	return func(db *DB) {
		if err := db.cat.Storage.SetDefaultStorageManager(strings.ToUpper(name)); err != nil && db.openErr == nil {
			db.openErr = err
		}
	}
}

// OpenErr reports why WithDataDir failed to attach or recover, nil when
// the DB is healthy. Every statement against a broken DB returns the
// same error.
func (db *DB) OpenErr() error { return db.openErr }

// DataDir reports the durable data directory, empty for an in-memory
// DB.
func (db *DB) DataDir() string { return db.dataDir }

// Store exposes the durable store (nil for an in-memory DB): stats,
// explicit Checkpoint, crash state.
func (db *DB) Store() *disk.Store { return db.store }

func (db *DB) attachStore(dir string, fsys disk.FS, opts disk.Options) {
	if db.openErr != nil {
		return
	}
	if db.store != nil {
		db.openErr = fmt.Errorf("starburst: data directory already attached (%s)", db.dataDir)
		return
	}
	st, err := disk.Open(dir, fsys, opts)
	if err != nil {
		db.openErr = err
		return
	}
	if err := db.cat.Storage.RegisterStorageManager(st.Manager()); err != nil {
		db.openErr = err
		return
	}
	db.store = st
	db.dataDir = dir
	st.SetWaitObs(db.waitProf)
	st.SetSnapshot(db.snapshotCatalog)
}

// recoverStore recovers the attached data directory. Open calls it once
// every option has run, so a replayed CREATE TABLE resolves an empty
// USING clause against the default WithDefaultStorage set, as it did
// when it first ran.
func (db *DB) recoverStore() {
	if db.store == nil || db.openErr != nil {
		return
	}
	st := db.store
	if err := db.recoverCatalog(); err != nil {
		db.openErr = fmt.Errorf("starburst: recover %s: %w", db.dataDir, err)
		return
	}
	db.metrics.GaugeFunc(MetricBufferPoolHits, func() int64 { return st.Stats().PoolHits })
	db.metrics.GaugeFunc(MetricBufferPoolMisses, func() int64 { return st.Stats().PoolMisses })
	db.metrics.GaugeFunc(MetricWALBytes, func() int64 { return st.Stats().WALBytes })
	db.metrics.GaugeFunc(MetricWALSyncs, func() int64 { return st.Stats().WALSyncs })
	db.metrics.GaugeFunc(MetricCheckpoints, func() int64 { return st.Stats().Checkpoints })
}

// Close releases the operator trees kept for cached and prepared
// plans, then checkpoints and closes the durable store, if there is
// one. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.releaseTrees(-1)
	if db.store == nil {
		return nil
	}
	db.adminMu.Lock()
	defer db.adminMu.Unlock()
	st := db.store
	db.store = nil
	return st.Close()
}

// ---------------------------------------------------------------------
// Transaction durability

// txnDurableHook returns the commit hook for one transaction: the
// function the transaction manager runs under the commit mutex, after
// conflict-free validation but before the commit timestamp publishes.
// Explicit transactions against a durable store append the WAL
// transaction-commit record (and fsync) there, so a crash either keeps
// the whole transaction or none of it. Implicit transactions ride the
// per-statement WAL bracket and need no hook; in-memory DBs have
// nothing to make durable.
func (db *DB) txnDurableHook(tx *Tx) func(cts int64) error {
	if db.store == nil || tx.ts.Txn.Implicit {
		return nil
	}
	id := tx.ts.Txn.ID
	return func(cts int64) error { return db.store.CommitTxn(id) }
}

// txnAborted tells the store a transaction ended without a commit
// record, releasing its open-transaction entry (checkpoints are held
// back while any tagged transaction is open).
func (db *DB) txnAborted(tx *Tx) {
	if db.store == nil || tx.ts.Txn.Implicit {
		return
	}
	db.store.AbortTxn(tx.ts.Txn.ID)
}

// rollbackDurable applies a transaction's write-log compensations. For
// an explicit transaction against a durable store the compensating
// page mutations are bracketed in a WAL statement group tagged with
// the transaction ID: the tag keeps them from replaying after a crash
// (the transaction has no commit record, so neither its statements nor
// their compensations replay), while an untagged group would replay
// the compensations alone and corrupt the recovered pages.
func (db *DB) rollbackDurable(tx *Tx) error {
	if db.store == nil || tx.ts.Txn.Implicit || tx.ts.Writes() == 0 {
		return tx.ts.Rollback(db.cat)
	}
	if err := db.store.BeginTxnStmt(tx.ts.Txn.ID); err != nil {
		// The WAL bracket could not open (store closing); undo the
		// in-memory state regardless.
		return errors.Join(err, tx.ts.Rollback(db.cat))
	}
	err := tx.ts.Rollback(db.cat)
	if err != nil {
		db.store.AbortStmt()
		return err
	}
	return db.store.CommitStmt()
}

// ---------------------------------------------------------------------
// DDL durability

// execDDLDurable wraps execDDL in a WAL statement group: the raw SQL is
// logged and replayed on recovery. ANALYZE is excluded (statistics are
// volatile). Serialization against other DDL comes from the catalog's
// mutation lock; running statements are unaffected (they read their
// pinned generations).
func (db *DB) execDDLDurable(stmt sql.Statement, raw string) (*Result, error) {
	if db.store == nil {
		return db.execDDL(stmt)
	}
	if _, ok := stmt.(*sql.AnalyzeStmt); ok {
		return db.execDDL(stmt)
	}
	if err := db.store.BeginStmt(); err != nil {
		return nil, err
	}
	// Exactly one of AbortStmt/CommitStmt must release the bracket; the
	// defer covers error returns and crash-fault panics before the
	// commit hand-off.
	committed := false
	defer func() {
		if !committed {
			db.store.AbortStmt()
		}
	}()
	res, err := db.execDDL(stmt)
	if err != nil {
		return nil, err
	}
	if err := db.store.LogDDL(raw); err != nil {
		return nil, err
	}
	committed = true
	if err := db.store.CommitStmt(); err != nil {
		return nil, err
	}
	if d, ok := stmt.(*sql.DropStmt); ok && d.Kind == "TABLE" {
		if err := db.store.DropTableData(d.Name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// rootIsDML reports whether a compiled plan mutates a table (its root,
// under any exchange operators, is a DML LOLEPOP). Only such plans need
// the WAL statement bracket.
func rootIsDML(n *plan.Node) bool {
	for n != nil {
		switch n.Op {
		case plan.OpInsert, plan.OpUpdate, plan.OpDelete:
			return true
		case plan.OpGather, plan.OpRepart:
			if len(n.Inputs) == 0 {
				return false
			}
			n = n.Inputs[0]
		default:
			return false
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Catalog snapshot (schema persistence)

// The snapshot is the engine-level half of catalog durability: the
// store persists it opaquely in catalog.json at each checkpoint, and
// hands it back at open for recreation. DDL committed after the
// snapshot replays from the WAL on top of it.

type snapSchema struct {
	Tables []snapTable `json:"tables"`
	Views  []snapView  `json:"views,omitempty"`
}

type snapTable struct {
	Name    ident.Text  `json:"name"`
	Cols    []snapCol   `json:"cols"`
	SM      string      `json:"sm"`
	Indexes []snapIndex `json:"indexes,omitempty"`
}

type snapCol struct {
	Name    ident.Text `json:"name"`
	Type    string     `json:"type"`
	NotNull bool       `json:"notnull,omitempty"`
}

// Names and view texts are ident.Texts, which keep bytes that are not
// UTF-8 (a quoted name may hold one) through the JSON.
type snapIndex struct {
	Name   ident.Text   `json:"name"`
	Cols   []ident.Text `json:"cols"`
	Method string       `json:"method"`
	Unique bool         `json:"unique,omitempty"`
}

type snapView struct {
	Name ident.Text   `json:"name"`
	Cols []ident.Text `json:"cols,omitempty"`
	Text ident.Text   `json:"text"`
}

// snapshotCatalog serializes the schema for the checkpoint. Called by
// the store with no statement in flight; safe against DML, which never
// changes schema.
func (db *DB) snapshotCatalog() ([]byte, error) {
	var snap snapSchema
	for _, name := range db.cat.TableNames() {
		t, ok := db.cat.Table(name)
		if !ok || t.System {
			// SYS virtual tables are re-registered at every Open, never
			// persisted.
			continue
		}
		st := snapTable{Name: ident.Text(t.Name), SM: t.SM}
		for _, c := range t.Cols {
			st.Cols = append(st.Cols, snapCol{Name: ident.Text(c.Name), Type: datum.TypeName(c.Type), NotNull: c.NotNull})
		}
		for _, ix := range t.Indexes {
			cols := make([]ident.Text, len(ix.KeyCols))
			for i, ord := range ix.KeyCols {
				cols[i] = ident.Text(t.Cols[ord].Name)
			}
			st.Indexes = append(st.Indexes, snapIndex{Name: ident.Text(ix.Name), Cols: cols, Method: ix.Method, Unique: ix.Unique})
		}
		snap.Tables = append(snap.Tables, st)
	}
	for _, name := range db.cat.ViewNames() {
		v, ok := db.cat.View(name)
		if !ok {
			continue
		}
		snap.Views = append(snap.Views, snapView{Name: ident.Text(v.Name), Cols: ident.Texts(v.ColNames), Text: ident.Text(v.Text)})
	}
	return json.Marshal(snap)
}

// ---------------------------------------------------------------------
// Recovery

// pendingIndex is an index whose build is deferred until data replay is
// complete: indexes are volatile, so every index — from the snapshot or
// a replayed CREATE INDEX — is rebuilt by backfill at the end.
type pendingIndex struct {
	name   string
	table  string
	cols   []string
	method string
	unique bool
}

// replayState marks the DB as replaying WAL DDL and collects deferred
// index builds. Checked by execDDL paths that must behave differently
// under replay.
type replayState struct {
	indexes []pendingIndex
}

// recoverCatalog rebuilds the engine state from the store: recreate the
// snapshot schema (attaching to existing page files), replay the WAL
// (committed DDL re-executes; data records restore pages), rebuild
// every index, and checkpoint so the next open starts clean.
func (db *DB) recoverCatalog() error {
	replay := &replayState{}
	if blob := db.store.SnapshotSchema(); len(blob) > 0 {
		var snap snapSchema
		if err := json.Unmarshal(blob, &snap); err != nil {
			return fmt.Errorf("parse catalog snapshot: %w", err)
		}
		for _, t := range snap.Tables {
			cols := make([]catalog.Column, len(t.Cols))
			for i, c := range t.Cols {
				tid, ok := datum.TypeIDByName(c.Type)
				if !ok {
					return fmt.Errorf("table %s column %s has unknown type %s (register user types before WithDataDir)", t.Name, c.Name, c.Type)
				}
				cols[i] = catalog.Column{Name: string(c.Name), Type: tid, NotNull: c.NotNull}
			}
			if _, err := db.cat.CreateTable(string(t.Name), cols, t.SM); err != nil {
				return fmt.Errorf("recreate table %s: %w", t.Name, err)
			}
			for _, ix := range t.Indexes {
				replay.indexes = append(replay.indexes, pendingIndex{
					name: string(ix.Name), table: string(t.Name), cols: ident.Strings(ix.Cols), method: ix.Method, unique: ix.Unique,
				})
			}
		}
		for _, v := range snap.Views {
			if err := db.cat.CreateView(string(v.Name), ident.Strings(v.Cols), string(v.Text)); err != nil {
				return fmt.Errorf("recreate view %s: %w", v.Name, err)
			}
		}
	}

	db.replay = replay
	err := db.store.Recover(func(sqlText string) error { return db.replayDDL(replay, sqlText) })
	db.replay = nil
	if err != nil {
		return err
	}

	for _, ix := range replay.indexes {
		if _, err := db.cat.CreateIndex(ix.name, ix.table, ix.cols, ix.method, ix.unique); err != nil {
			return fmt.Errorf("rebuild index %s on %s: %w", ix.name, ix.table, err)
		}
	}
	return db.store.Checkpoint()
}

// replayDDL re-executes one committed WAL DDL statement. Index DDL is
// diverted into the pending list (built after data replay); DROPs prune
// it so an index dropped later is never built.
func (db *DB) replayDDL(replay *replayState, sqlText string) error {
	//lint:ignore api-bypass WAL replay runs inside Open, before the DB is usable: the statement lock is not yet contended, the plan cache does not exist, and errors surface through openErr rather than QueryError
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *sql.CreateIndexStmt:
		replay.indexes = append(replay.indexes, pendingIndex{
			name: ident.Upper(s.Name), table: ident.Upper(s.Table),
			cols: s.Cols, method: s.Method, unique: s.Unique,
		})
		return nil
	case *sql.DropStmt:
		switch s.Kind {
		case "INDEX":
			replay.indexes = prunePending(replay.indexes, func(p pendingIndex) bool {
				return ident.Equal(p.table, s.Table) && ident.Equal(p.name, s.Name)
			})
			return nil
		case "TABLE":
			replay.indexes = prunePending(replay.indexes, func(p pendingIndex) bool {
				return ident.Equal(p.table, s.Name)
			})
			if _, err := db.execDDL(stmt); err != nil {
				return err
			}
			return db.store.DropTableData(s.Name)
		}
	}
	_, err = db.execDDL(stmt)
	return err
}

func prunePending(list []pendingIndex, drop func(pendingIndex) bool) []pendingIndex {
	out := list[:0]
	for _, p := range list {
		if !drop(p) {
			out = append(out, p)
		}
	}
	return out
}
