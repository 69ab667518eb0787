package disk

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/storage"
)

// ManagerName is the registry name of the durable storage manager:
// CREATE TABLE ... USING DISK.
const ManagerName = "DISK"

// Manager adapts a Store to the storage.StorageManager extension point,
// so durable tables register through the same [LIND87] attachment
// architecture as the in-memory managers.
type Manager struct {
	s *Store
}

// Manager returns the store's storage-manager face.
func (s *Store) Manager() *Manager { return &Manager{s: s} }

// Name implements storage.StorageManager.
func (m *Manager) Name() string { return ManagerName }

// Create implements storage.StorageManager: it binds the table to its
// page file (attaching to existing pages when the store is recovering a
// snapshot, truncating otherwise).
func (m *Manager) Create(tableName string, numCols int, stats *storage.IOStats) (storage.Relation, error) {
	tf, err := m.s.createTable(tableName, numCols)
	if err != nil {
		return nil, err
	}
	return &relation{s: m.s, tf: tf, stats: stats}, nil
}

// relation is the durable storage.Relation: every mutation is WAL-
// logged through the store, every page touch goes through the buffer
// pool.
type relation struct {
	s     *Store
	tf    *tableFile
	stats *storage.IOStats
}

var (
	_ storage.Relation         = (*relation)(nil)
	_ storage.PageRangeScanner = (*relation)(nil)
	_ storage.Restorer         = (*relation)(nil)
)

// Insert implements storage.Relation.
func (r *relation) Insert(row datum.Row) (storage.RID, error) {
	rec, err := encodeRow(nil, row)
	if err != nil {
		return storage.RID{}, fmt.Errorf("disk: %s: %w", r.tf.name, err)
	}
	rid, err := r.s.insertRecord(r.tf, rec)
	if err != nil {
		return storage.RID{}, err
	}
	r.stats.WritePage()
	return rid, nil
}

// Delete implements storage.Relation.
func (r *relation) Delete(rid storage.RID) error {
	if err := r.s.deleteRecord(r.tf, rid); err != nil {
		return err
	}
	r.stats.WritePage()
	return nil
}

// Update implements storage.Relation.
func (r *relation) Update(rid storage.RID, row datum.Row) error {
	rec, err := encodeRow(nil, row)
	if err != nil {
		return fmt.Errorf("disk: %s: %w", r.tf.name, err)
	}
	if err := r.s.updateRecord(r.tf, rid, rec); err != nil {
		return err
	}
	r.stats.WritePage()
	return nil
}

// Restore implements storage.Restorer: undo-log put-back of a deleted
// record at its original RID.
func (r *relation) Restore(rid storage.RID, row datum.Row) error {
	rec, err := encodeRow(nil, row)
	if err != nil {
		return fmt.Errorf("disk: %s: %w", r.tf.name, err)
	}
	if err := r.s.restoreRecord(r.tf, rid, rec); err != nil {
		return err
	}
	r.stats.WritePage()
	return nil
}

// Fetch implements storage.Relation.
func (r *relation) Fetch(rid storage.RID) (datum.Row, bool) {
	rec, ok := r.s.fetchRecord(r.tf, rid)
	if !ok {
		return nil, false
	}
	r.stats.ReadPage()
	row, err := decodeRow(rec, r.tf.numCols)
	if err != nil {
		return nil, false
	}
	return row, true
}

// Scan implements storage.Relation. The page range is fixed at open;
// records inserted behind the cursor are not revisited, matching the
// in-memory heap's visibility.
func (r *relation) Scan() storage.RowIterator {
	return r.ScanPages(0, r.PageCount())
}

// ScanPages implements storage.PageRangeScanner, the morsel-parallelism
// hook: scan only pages [lo, hi).
func (r *relation) ScanPages(lo, hi int64) storage.RowIterator {
	if lo < 0 {
		lo = 0
	}
	return &diskIterator{r: r, page: lo, end: hi}
}

// RowCount implements storage.Relation.
func (r *relation) RowCount() int64 {
	r.tf.mu.RLock()
	defer r.tf.mu.RUnlock()
	return r.tf.rows
}

// PageCount implements storage.Relation.
func (r *relation) PageCount() int64 {
	r.tf.mu.RLock()
	defer r.tf.mu.RUnlock()
	return r.tf.pages
}

// Truncate implements storage.Relation. The removal is logged like any
// mutation; page files shrink at the next checkpoint.
func (r *relation) Truncate() {
	// The interface is infallible (the in-memory managers cannot fail);
	// a WAL error here aborts the enclosing statement group instead, and
	// a crash fault propagates by panic.
	_ = r.s.truncateTable(r.tf)
}

// diskIterator streams a page range, decoding one pinned page at a time
// into a row buffer. One simulated page read is counted per page
// visited, the same accounting as the in-memory heap.
type diskIterator struct {
	r    *relation
	page int64
	end  int64

	rows []datum.Row
	rids []storage.RID
	idx  int
	err  error
}

// fill decodes pages until one yields records or the range ends,
// leaving the batch in rows/rids. Reports whether anything was
// produced.
func (it *diskIterator) fill() bool {
	it.rows = it.rows[:0]
	it.rids = it.rids[:0]
	it.idx = 0
	if it.err != nil {
		return false
	}
	tf := it.r.tf
	for it.page < it.end {
		p := it.page
		it.page++
		tf.mu.RLock()
		if p >= tf.pages {
			tf.mu.RUnlock()
			continue
		}
		fr, err := it.r.s.pin(tf, uint32(p))
		if err != nil {
			tf.mu.RUnlock()
			it.err = err
			return false
		}
		pg := newPage(fr.buf)
		it.r.stats.ReadPage()
		for slot := 0; slot < pg.slotCount(); slot++ {
			rec := pg.record(slot)
			if rec == nil {
				continue
			}
			row, derr := decodeRow(rec, tf.numCols)
			if derr != nil {
				it.err = fmt.Errorf("disk: %s page %d slot %d: %w", tf.name, p, slot, derr)
				break
			}
			it.rows = append(it.rows, row)
			it.rids = append(it.rids, storage.RID{Page: int32(p), Slot: int32(slot)})
		}
		it.r.s.pool.unpin(fr, false, 0)
		tf.mu.RUnlock()
		if it.err != nil {
			return false
		}
		if len(it.rows) > 0 {
			return true
		}
	}
	return false
}

// Next implements storage.RowIterator.
func (it *diskIterator) Next() (datum.Row, storage.RID, bool) {
	for it.idx >= len(it.rows) {
		if !it.fill() {
			return nil, storage.RID{}, false
		}
	}
	i := it.idx
	it.idx++
	return it.rows[i], it.rids[i], true
}

// Err reports a deferred scan error (storage.IterErr contract).
func (it *diskIterator) Err() error { return it.err }

// Close implements storage.RowIterator.
func (it *diskIterator) Close() {}
