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
	_ storage.Tombstoner       = (*relation)(nil)
	_ storage.RowFiller        = (*relation)(nil)
)

// Insert implements storage.Relation.
func (r *relation) Insert(row datum.Row) (storage.RID, error) {
	rid, err := r.s.insertRecord(r.tf, row)
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

// Tombstone implements storage.Tombstoner.
func (r *relation) Tombstone(rid storage.RID) error { return r.s.tombstoneRecord(r.tf, rid) }

// Untombstone implements storage.Tombstoner.
func (r *relation) Untombstone(rid storage.RID) { r.s.untombstone(r.tf.name, rid) }

// Update implements storage.Relation.
func (r *relation) Update(rid storage.RID, row datum.Row) error {
	if err := r.s.updateRecord(r.tf, rid, row); err != nil {
		return err
	}
	r.stats.WritePage()
	return nil
}

// Fetch implements storage.Relation.
func (r *relation) Fetch(rid storage.RID) (datum.Row, bool) {
	row := make(datum.Row, r.tf.numCols)
	return row, r.FetchInto(rid, row)
}

// FetchInto implements storage.RowFiller, decoding from the pinned page.
func (r *relation) FetchInto(rid storage.RID, dst datum.Row) bool {
	if !r.s.fetchInto(r.tf, rid, dst) {
		return false
	}
	r.stats.ReadPage()
	return true
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

// diskIterator streams a page range, pinning one page per call. Its
// position is a page and the next slot on it, shared by both ways of
// reading it, so a cursor may switch between them mid-scan without
// skipping or repeating a record: Next decodes a record into the
// iterator's scratch row and hands that out, NextCols decodes records
// through it into column lanes and may stop mid-page. STRING values
// come from an interner the iterator owns, so rows may share a string
// with earlier rows of the scan. Next reads ahead of nothing: the
// version layer resolves a record in the same step that reads it (see
// txn.TableVersions.ReadNext), which a buffered image would defeat. One
// simulated page read is counted per page, on first touch — the same
// accounting as the in-memory heap.
type diskIterator struct {
	r    *relation
	page int64
	slot int
	end  int64

	scratch datum.Row
	strs    interner
	err     error
}

var _ storage.ColScanner = (*diskIterator)(nil)

// readPage decodes the live records of the page at the scan position,
// from the remembered slot on, each into it.scratch, and hands each to
// emit with its RID. It stops after a record for which emit reports
// false, remembering the next slot, and otherwise moves on to the next
// page. It holds the page pin and the table's read lock only for the
// call. A record that fails to decode is not emitted: the error is
// deferred to Err. readPage reports false once the range is exhausted
// or an error is recorded.
func (it *diskIterator) readPage(emit func(storage.RID) bool) bool {
	if it.err != nil || it.page >= it.end {
		return false
	}
	tf := it.r.tf
	if it.scratch == nil {
		it.scratch, it.strs = make(datum.Row, tf.numCols), interner{}
	}
	tf.mu.RLock()
	defer tf.mu.RUnlock()
	if it.page >= tf.pages {
		it.page, it.slot = it.page+1, 0
		return true
	}
	fr, err := it.r.s.pin(tf, uint32(it.page))
	if err != nil {
		it.err = err
		return false
	}
	defer it.r.s.pool.unpin(fr, false, 0)
	pg := newPage(fr.buf)
	if it.slot == 0 {
		it.r.stats.ReadPage()
	}
	for it.slot < pg.slotCount() {
		slot := it.slot
		it.slot++
		rec := pg.record(slot)
		if rec == nil {
			continue
		}
		if derr := decodeInto(it.scratch, rec, it.strs); derr != nil {
			it.err = fmt.Errorf("disk: %s page %d slot %d: %w", tf.name, it.page, slot, derr)
			return false
		}
		if !emit(storage.RID{Page: int32(it.page), Slot: int32(slot)}) {
			break
		}
	}
	if it.slot >= pg.slotCount() {
		it.page, it.slot = it.page+1, 0
	}
	return true
}

// Next implements storage.RowIterator: the row is the iterator's
// scratch row, valid until its next call.
func (it *diskIterator) Next() (datum.Row, storage.RID, bool) {
	var rid storage.RID
	found := false
	emit := func(r storage.RID) bool {
		rid, found = r, true
		return false
	}
	for !found && it.readPage(emit) {
	}
	if !found {
		return nil, storage.RID{}, false
	}
	return it.scratch, rid, true
}

// NextCols implements storage.ColScanner.
func (it *diskIterator) NextCols(b *datum.ColBatch, max int) int {
	n := 0
	emit := func(storage.RID) bool {
		b.AppendRow(it.scratch)
		n++
		return n < max
	}
	for n < max && it.readPage(emit) {
	}
	return n
}

// Err reports a deferred scan error (storage.IterErr contract).
func (it *diskIterator) Err() error { return it.err }

// Close implements storage.RowIterator.
func (it *diskIterator) Close() {}
