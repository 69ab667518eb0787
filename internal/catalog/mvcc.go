package catalog

// Transactional DML: the MVCC write paths, the per-transaction write
// log that gives statements and transactions rollback, and the version
// garbage collector.
//
// Writes are in-place with prior-image chains (see internal/txn): the
// relation always holds a row's newest image, and readers whose
// snapshots predate it walk back through the version entry's chain.
// The write log records one compensating action per storage-level step
// — the PR-2 undo log promoted to transaction scope — so ROLLBACK (and
// statement-level abort inside a larger transaction, via Mark /
// RollbackTo) restores the heap, the version map and every attachment
// to the pre-write state. Compensations run against the unwrapped
// (fault-free) store: rollback must not be failed by the injector that
// aborted the statement.
//
// Index maintenance under MVCC is insert-only: a key-changing update
// inserts the new-key entry eagerly and leaves the old-key entry
// linked (recorded as a stale key on the version) so older snapshots
// can still reach the row by its old key; the GC unlinks stale entries
// once no snapshot needs them. Physical deletes are likewise deferred
// to the GC. Index scans therefore recheck the key they used against
// the visible image whenever the table has unfrozen versions.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/txn"
)

type writeKind uint8

const (
	wRowInsert writeKind = iota // compensate: physically delete, drop entry
	wRowDelete                  // compensate: clear xmax (or drop created entry)
	wRowUpdate                  // compensate: restore old image, pop prev
	wIxInsert                   // compensate: delete the entry
	wRelink                     // compensate: re-insert a force-unlinked entry
	wStaleKey                   // compensate: drop the recorded stale key
)

// txnWrite is one compensating action in a transaction's write log.
type txnWrite struct {
	kind  writeKind
	table string
	rid   storage.RID
	// key is the index key (wIxInsert, wRelink, wStaleKey).
	key datum.Row
	// index names the attachment (wIxInsert, wRelink, wStaleKey).
	index string
	// oldRow is the pre-update image (wRowUpdate).
	oldRow datum.Row
	// created marks a version entry this write registered; its
	// compensation unregisters it.
	created bool
	// pushedPrev marks an update that chained a prior image and took
	// over xmin; its compensation pops the chain and restores xmin.
	pushedPrev          bool
	oldXminTxn, oldXmin int64
}

// TxnState carries one transaction's write log through its statements.
// The engine owns its lifecycle: created at BEGIN (or per statement in
// autocommit), rolled back on abort, garbage-enqueued on commit.
type TxnState struct {
	// Txn is the identity and snapshot the writes run under.
	Txn    *txn.Txn
	writes []txnWrite
}

// NewTxnState wraps a transaction for DML.
func NewTxnState(t *txn.Txn) *TxnState { return &TxnState{Txn: t} }

// Mark returns a savepoint: the current write-log length. A statement
// that fails mid-flight rolls back to its entry mark, leaving the
// transaction's earlier statements intact.
func (ts *TxnState) Mark() int { return len(ts.writes) }

// Writes reports the number of logged compensating actions.
func (ts *TxnState) Writes() int { return len(ts.writes) }

func (ts *TxnState) note(w txnWrite) { ts.writes = append(ts.writes, w) }

// Grow makes room for n more logged writes, so a statement that knows
// how many it will make grows the log once.
func (ts *TxnState) Grow(n int) { ts.writes = slices.Grow(ts.writes, n) }

// RollbackTo undoes the write log back to a Mark, in reverse order,
// bypassing fault decoration. It keeps going past individual
// compensation failures (joining them into the returned error): a
// partial rollback is still better than none.
func (ts *TxnState) RollbackTo(c *Catalog, mark int) error {
	var errs []error
	for i := len(ts.writes) - 1; i >= mark; i-- {
		w := ts.writes[i]
		t, ok := c.currentTable(w.table)
		if !ok {
			continue // table dropped; nothing left to restore
		}
		tv := t.MVCC
		switch w.kind {
		case wRowInsert:
			tv.WriteLock()
			if err := storage.UnwrapRelation(t.Rel).Delete(w.rid); err != nil {
				errs = append(errs, fmt.Errorf("catalog: undo %s: %w", t.Name, err))
			}
			if tv.LookupLocked(w.rid) != nil {
				tv.RemoveLocked(w.rid)
				tv.AddCount(-1)
			}
			tv.WriteUnlock()
		case wRowDelete:
			if tb, ok := storage.UnwrapRelation(t.Rel).(storage.Tombstoner); ok {
				tb.Untombstone(w.rid)
			}
			tv.WriteLock()
			if v := tv.LookupLocked(w.rid); v != nil {
				if w.created {
					tv.RemoveLocked(w.rid)
					tv.AddCount(-1)
				} else {
					v.SetXmax(0, 0)
				}
			}
			tv.WriteUnlock()
		case wRowUpdate:
			tv.WriteLock()
			if err := storage.UnwrapRelation(t.Rel).Update(w.rid, w.oldRow); err != nil {
				errs = append(errs, fmt.Errorf("catalog: undo %s: %w", t.Name, err))
			}
			if v := tv.LookupLocked(w.rid); v != nil {
				if w.pushedPrev {
					v.PopPrev()
					v.SetXmin(w.oldXminTxn, w.oldXmin)
				}
				if w.created {
					tv.RemoveLocked(w.rid)
					tv.AddCount(-1)
				}
			}
			tv.WriteUnlock()
		case wIxInsert:
			if ix := findIndex(t, w.index); ix != nil {
				if err := storage.UnwrapAttachment(ix.At).Delete(w.key, w.rid); err != nil {
					errs = append(errs, fmt.Errorf("catalog: undo %s.%s: %w", t.Name, w.index, err))
				}
			}
		case wRelink:
			if ix := findIndex(t, w.index); ix != nil {
				if err := storage.UnwrapAttachment(ix.At).Insert(w.key, w.rid); err != nil {
					errs = append(errs, fmt.Errorf("catalog: undo %s.%s: %w", t.Name, w.index, err))
				}
			}
		case wStaleKey:
			tv.WriteLock()
			if v := tv.LookupLocked(w.rid); v != nil {
				v.DropStale(w.index, w.key)
			}
			tv.WriteUnlock()
		}
	}
	ts.writes = ts.writes[:mark]
	return errors.Join(errs...)
}

// Rollback undoes the whole transaction's write log.
func (ts *TxnState) Rollback(c *Catalog) error { return ts.RollbackTo(c, 0) }

func findIndex(t *Table, name string) *Index {
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// checkWriteConflict enforces first-writer-wins: a row whose newest
// write or deletion belongs to another in-flight transaction, or
// committed after our snapshot, cannot be written.
func checkWriteConflict(v *txn.RowVersion, snap txn.Snapshot, table string) error {
	if dt, dc := v.Xmax(); dt != 0 && dt != snap.Own {
		if dc == 0 {
			return &txn.ConflictError{Table: table, Other: dt}
		}
		if dc > snap.TS {
			return &txn.ConflictError{Table: table}
		}
		// Deletion committed at or below our snapshot: the row is dead
		// for us and should never have been targeted.
		return fmt.Errorf("catalog: %s: record deleted", table)
	}
	if xt, xc := v.Xmin(); xt != 0 && xt != snap.Own {
		if xc == 0 {
			return &txn.ConflictError{Table: table, Other: xt}
		}
		if xc > snap.TS {
			return &txn.ConflictError{Table: table}
		}
	}
	return nil
}

// InsertTx stores a row under a transaction: the record is written
// physically, registered in the version map as created by ts.Txn
// (invisible to every other snapshot until commit), and entered into
// every current attachment. The whole mutation runs inside the table's
// version write lock, which keeps the count fast path sound and
// serializes row writers per table. The row is handed over: it is
// coerced in place, and the relation and attachments keep copies, so
// the caller may reuse it for its next row — but must not pass a row it
// read from a relation or an index.
func (c *Catalog) InsertTx(t *Table, row datum.Row, ts *TxnState) (storage.RID, error) {
	tv := t.MVCC
	if tv == nil {
		return storage.RID{}, &SystemObjectError{Name: t.Name, Op: "INSERT"}
	}
	if err := coerceRow(t, row); err != nil {
		return storage.RID{}, err
	}
	cur, ok := c.currentTable(t.Name)
	if !ok {
		cur = t // table dropped mid-statement; maintain the pinned index set
	}
	tv.BeginWrite()
	defer tv.EndWrite()
	tv.WriteLock()
	defer tv.WriteUnlock()

	tv.AddCount(1)
	rid, err := t.Rel.Insert(row)
	if err != nil {
		tv.AddCount(-1)
		return storage.RID{}, err
	}
	v := txn.NewVersion(ts.Txn.ID)
	tv.PutLocked(rid, v)
	ts.Txn.Track(v)
	ts.note(txnWrite{kind: wRowInsert, table: t.Name, rid: rid})

	for _, ix := range cur.Indexes {
		key := extractKey(row, ix.KeyCols)
		if err := c.insertEntry(cur, tv, ix, key, rid, ts); err != nil {
			return storage.RID{}, err
		}
	}
	return rid, nil
}

// DeleteTx tombstones the record at rid for ts.Txn: it sets the
// version's xmax, leaving the record and its index entries physically
// in place for older snapshots. The GC reaps them once no snapshot can
// see the row. A relation that logs deletions (storage.Tombstoner) is
// told now, so the DELETE is as durable as its statement.
func (c *Catalog) DeleteTx(t *Table, rid storage.RID, ts *TxnState) error {
	tv := t.MVCC
	if tv == nil {
		return &SystemObjectError{Name: t.Name, Op: "DELETE"}
	}
	tv.BeginWrite()
	defer tv.EndWrite()
	tv.WriteLock()
	defer tv.WriteUnlock()

	if _, ok := t.Rel.Fetch(rid); !ok {
		return fmt.Errorf("catalog: %s: no record %s", t.Name, rid)
	}
	v := tv.LookupLocked(rid)
	if v != nil {
		if dt, _ := v.Xmax(); dt == ts.Txn.ID {
			return fmt.Errorf("catalog: %s: no record %s", t.Name, rid)
		}
		if err := checkWriteConflict(v, ts.Txn.Snap, t.Name); err != nil {
			return err
		}
	}
	if tb, ok := storage.UnwrapRelation(t.Rel).(storage.Tombstoner); ok {
		if err := tb.Tombstone(rid); err != nil {
			return err
		}
	}
	created := v == nil
	if created {
		// Frozen row: register an entry carrying only our tombstone.
		v = txn.NewVersion(0)
		tv.AddCount(1)
		tv.PutLocked(rid, v)
	}
	v.SetXmax(ts.Txn.ID, 0)
	ts.Txn.Track(v)
	ts.note(txnWrite{kind: wRowDelete, table: t.Name, rid: rid, created: created})
	return nil
}

// UpdateTx replaces the record's image in place for ts.Txn: the old
// image is chained as a prior version for older snapshots, the
// relation takes the new image, and key-changing attachments gain the
// new-key entry eagerly while the old-key entry stays linked as a
// stale key until GC.
func (c *Catalog) UpdateTx(t *Table, rid storage.RID, newRow datum.Row, ts *TxnState) error {
	tv := t.MVCC
	if tv == nil {
		return &SystemObjectError{Name: t.Name, Op: "UPDATE"}
	}
	if err := checkNotNull(t, newRow); err != nil {
		return err
	}
	cur, ok := c.currentTable(t.Name)
	if !ok {
		cur = t
	}
	tv.BeginWrite()
	defer tv.EndWrite()
	tv.WriteLock()
	defer tv.WriteUnlock()

	old, ok := t.Rel.Fetch(rid)
	if !ok {
		return fmt.Errorf("catalog: %s: no record %s", t.Name, rid)
	}
	v := tv.LookupLocked(rid)
	created, pushed := false, false
	var oldXminTxn, oldXminCTS int64
	switch {
	case v == nil:
		// Frozen row: the old image becomes a frozen prior version.
		v = txn.NewVersion(ts.Txn.ID)
		v.PushPrev(&txn.PrevImage{Row: old})
		tv.AddCount(1)
		tv.PutLocked(rid, v)
		created, pushed = true, true
	default:
		if err := checkWriteConflict(v, ts.Txn.Snap, t.Name); err != nil {
			return err
		}
		if xt, xc := v.Xmin(); xt == ts.Txn.ID && xc == 0 {
			// Second write by this transaction: the committed prior
			// image is already chained; the undo record restores the
			// intermediate image from its logged copy.
		} else {
			oldXminTxn, oldXminCTS = xt, xc
			v.PushPrev(&txn.PrevImage{Row: old, XminCTS: xc})
			v.SetXmin(ts.Txn.ID, 0)
			pushed = true
		}
	}
	if err := t.Rel.Update(rid, newRow); err != nil {
		// Unwind the version-side mutation; nothing was logged yet.
		if pushed {
			v.PopPrev()
			v.SetXmin(oldXminTxn, oldXminCTS)
		}
		if created {
			tv.RemoveLocked(rid)
			tv.AddCount(-1)
		}
		return err
	}
	ts.Txn.Track(v)
	ts.note(txnWrite{
		kind: wRowUpdate, table: t.Name, rid: rid, oldRow: old,
		created: created, pushedPrev: pushed,
		oldXminTxn: oldXminTxn, oldXmin: oldXminCTS,
	})

	for _, ix := range cur.Indexes {
		oldKey := extractKey(old, ix.KeyCols)
		newKey := extractKey(newRow, ix.KeyCols)
		if storage.CompareKeys(oldKey, newKey) == 0 {
			continue
		}
		if err := c.insertEntry(cur, tv, ix, newKey, rid, ts); err != nil {
			return err
		}
		// The old-key entry stays for older snapshots; GC unlinks it.
		v.AddStale(ix.Name, oldKey)
		ts.note(txnWrite{kind: wStaleKey, table: t.Name, rid: rid, index: ix.Name, key: oldKey})
	}
	return nil
}

// insertEntry adds one attachment entry, logging its compensation.
// On a unique violation it classifies the competing entries under MVCC
// and force-unlinks the ones that are dead or stale for every relevant
// snapshot, retrying the insert; genuinely live duplicates and entries
// owned by other in-flight transactions surface as errors.
func (c *Catalog) insertEntry(t *Table, tv *txn.TableVersions, ix *Index, key datum.Row, rid storage.RID, ts *TxnState) error {
	for attempt := 0; ; attempt++ {
		err := ix.At.Insert(key, rid)
		if err == nil {
			ts.note(txnWrite{kind: wIxInsert, table: t.Name, rid: rid, index: ix.Name, key: key})
			return nil
		}
		if !ix.Unique || attempt >= 3 {
			return err
		}
		unlinked, cerr := c.classifyDuplicates(t, tv, ix, key, rid, ts)
		if cerr != nil {
			return cerr
		}
		if unlinked == 0 {
			return err
		}
	}
}

// classifyDuplicates examines the entries blocking a unique insert.
// Deferred physical deletes and stale old-key entries are unlinked
// (with a relink compensation, so our rollback restores them for older
// snapshots); an entry owned by another in-flight transaction, or one
// whose key-change committed after our snapshot would still be live
// for us, is a write conflict. A live committed entry whose key really
// is current is a genuine duplicate (zero unlinked, no error).
//
// Known limitation: a snapshot older than a force-unlink can no longer
// reach the old row through this index; heap scans still see it.
func (c *Catalog) classifyDuplicates(t *Table, tv *txn.TableVersions, ix *Index, key datum.Row, rid storage.RID, ts *TxnState) (int, error) {
	b := storage.Bound{Key: key, Inclusive: true}
	it := ix.At.Search(b, b)
	var matches []storage.Entry
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if storage.CompareKeys(e.Key, key) == 0 && e.RID != rid {
			matches = append(matches, e)
		}
	}
	it.Close()
	if err := storage.IterErr(it); err != nil {
		return 0, err
	}
	snap := ts.Txn.Snap
	unlinked := 0
	unlink := func(e storage.Entry) error {
		if err := storage.UnwrapAttachment(ix.At).Delete(e.Key, e.RID); err != nil {
			return err
		}
		ts.note(txnWrite{kind: wRelink, table: t.Name, rid: e.RID, index: ix.Name, key: e.Key})
		unlinked++
		return nil
	}
	for _, e := range matches {
		row, ok := t.Rel.Fetch(e.RID)
		if !ok {
			// Orphan: the record is gone but the entry survived.
			if err := unlink(e); err != nil {
				return unlinked, err
			}
			continue
		}
		v := tv.LookupLocked(e.RID)
		keyCurrent := storage.CompareKeys(extractKey(row, ix.KeyCols), key) == 0
		if v == nil {
			if keyCurrent {
				return unlinked, nil // frozen live duplicate
			}
			// Stale entry of a frozen row whose key moved on.
			if err := unlink(e); err != nil {
				return unlinked, err
			}
			continue
		}
		if dt, dc := v.Xmax(); dt != 0 {
			switch {
			case dt == snap.Own || (dc != 0 && dc <= snap.TS):
				// Deleted by us, or dead before our snapshot: the entry
				// only serves older readers.
				if err := unlink(e); err != nil {
					return unlinked, err
				}
			case dc == 0:
				return unlinked, &txn.ConflictError{Table: t.Name, Other: dt}
			default:
				return unlinked, &txn.ConflictError{Table: t.Name}
			}
			continue
		}
		xt, xc := v.Xmin()
		if !keyCurrent {
			// Old-key entry of a key-changing update.
			if xt != 0 && xt != snap.Own && xc == 0 {
				// The key-change is uncommitted; its owner may yet roll
				// back, making this key current again.
				return unlinked, &txn.ConflictError{Table: t.Name, Other: xt}
			}
			if err := unlink(e); err != nil {
				return unlinked, err
			}
			continue
		}
		if xt != 0 && xt != snap.Own && xc == 0 {
			return unlinked, &txn.ConflictError{Table: t.Name, Other: xt}
		}
		return unlinked, nil // live duplicate (ours, committed, or frozen)
	}
	return unlinked, nil
}

// ---------------------------------------------------------------------
// Version garbage collection

// gcItem is one row awaiting the horizon: a committed write whose old
// images, stale index entries or tombstoned record can be cleaned once
// every snapshot has moved past it.
type gcItem struct {
	table string
	rid   storage.RID
}

// EnqueueGC schedules a committed transaction's written rows for
// version cleanup. The engine calls it after Commit publishes.
func (c *Catalog) EnqueueGC(ts *TxnState) {
	l := c.live()
	var items []gcItem
	for _, w := range ts.writes {
		switch w.kind {
		case wRowInsert, wRowUpdate, wRowDelete:
			items = append(items, gcItem{table: w.table, rid: w.rid})
		}
	}
	if len(items) == 0 {
		return
	}
	// A row written twice is queued once.
	slices.SortFunc(items, func(a, b gcItem) int {
		return cmp.Or(strings.Compare(a.table, b.table), cmp.Compare(a.rid.Page, b.rid.Page), cmp.Compare(a.rid.Slot, b.rid.Slot))
	})
	items = slices.Compact(items)
	l.gcMu.Lock()
	l.gc = append(l.gc, items...)
	l.gcMu.Unlock()
}

// RunGC drains the pending-cleanup queue against a GC horizon (the
// oldest active snapshot): rows whose death committed at or below the
// horizon are physically reaped — record deleted, current and stale
// index entries unlinked, version entry dropped — and rows whose birth
// committed at or below it are frozen — stale entries unlinked, entry
// dropped, restoring the no-entry fast path. Rows still needed by some
// snapshot are requeued. Cleanup bypasses fault decoration: GC is not
// part of any statement.
func (c *Catalog) RunGC(horizon int64) error {
	l := c.live()
	l.gcMu.Lock()
	items := l.gc
	l.gc = nil
	l.gcMu.Unlock()
	if len(items) == 0 {
		return nil
	}
	var errs []error
	var keep []gcItem
	for _, item := range items {
		t, ok := c.currentTable(item.table)
		if !ok {
			continue // table dropped; versions go with it
		}
		tv := t.MVCC
		tv.WriteLock()
		v := tv.LookupLocked(item.rid)
		if v == nil {
			tv.WriteUnlock()
			continue // already frozen or reaped
		}
		dt, dc := v.Xmax()
		xt, xc := v.Xmin()
		switch {
		case dt != 0 && dc != 0 && dc <= horizon:
			// Dead for every snapshot: reap.
			for _, s := range v.TakeStale() {
				if ix := findIndex(t, s.Index); ix != nil {
					if err := storage.UnwrapAttachment(ix.At).Delete(s.Key, item.rid); err != nil {
						errs = append(errs, fmt.Errorf("catalog: gc %s.%s: %w", t.Name, s.Index, err))
					}
				}
			}
			if row, ok := t.Rel.Fetch(item.rid); ok {
				for _, ix := range t.Indexes {
					if err := storage.UnwrapAttachment(ix.At).Delete(extractKey(row, ix.KeyCols), item.rid); err != nil {
						errs = append(errs, fmt.Errorf("catalog: gc %s.%s: %w", t.Name, ix.Name, err))
					}
				}
				if err := storage.UnwrapRelation(t.Rel).Delete(item.rid); err != nil {
					errs = append(errs, fmt.Errorf("catalog: gc %s: %w", t.Name, err))
				}
			}
			tv.RemoveLocked(item.rid)
			tv.AddCount(-1)
		case dt == 0 && (xt == 0 || (xc != 0 && xc <= horizon)):
			// Visible to every snapshot: freeze.
			for _, s := range v.TakeStale() {
				if ix := findIndex(t, s.Index); ix != nil {
					if err := storage.UnwrapAttachment(ix.At).Delete(s.Key, item.rid); err != nil {
						errs = append(errs, fmt.Errorf("catalog: gc %s.%s: %w", t.Name, s.Index, err))
					}
				}
			}
			tv.RemoveLocked(item.rid)
			tv.AddCount(-1)
		default:
			keep = append(keep, item)
		}
		tv.WriteUnlock()
	}
	if len(keep) > 0 {
		l.gcMu.Lock()
		l.gc = append(l.gc, keep...)
		l.gcMu.Unlock()
	}
	return errors.Join(errs...)
}

// PendingGC reports the cleanup-queue length (tests and SYS).
func (c *Catalog) PendingGC() int {
	l := c.live()
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return len(l.gc)
}
