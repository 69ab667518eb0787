package storage

import (
	"fmt"
	"sync"

	"repro/internal/datum"
)

// HeapManager is the default storage manager: an unordered heap of
// slotted pages. Page granularity is simulated (rowsPerPage records per
// page) so scans charge realistic page-read counts to IOStats.
type HeapManager struct {
	rowsPerPage int
}

// NewHeapManager returns a heap manager with the given simulated page
// capacity (records per page).
func NewHeapManager(rowsPerPage int) *HeapManager {
	if rowsPerPage <= 0 {
		rowsPerPage = 64
	}
	return &HeapManager{rowsPerPage: rowsPerPage}
}

// Name implements StorageManager.
func (*HeapManager) Name() string { return "HEAP" }

// Create implements StorageManager.
func (m *HeapManager) Create(tableName string, numCols int, stats *IOStats) (Relation, error) {
	if numCols <= 0 {
		return nil, fmt.Errorf("storage: table %s must have columns", tableName)
	}
	return &heapRelation{
		name:        tableName,
		numCols:     numCols,
		rowsPerPage: m.rowsPerPage,
		stats:       stats,
	}, nil
}

type heapPage struct {
	rows []datum.Row // nil slot = deleted
	live int
}

type heapRelation struct {
	mu          sync.RWMutex
	name        string
	numCols     int
	rowsPerPage int
	pages       []*heapPage
	rowCount    int64
	stats       *IOStats
	// freePages holds indexes of pages with free slots at the end; heap
	// inserts go to the last page with room (append-mostly).
}

func (h *heapRelation) Insert(r datum.Row) (RID, error) {
	if len(r) != h.numCols {
		return RID{}, fmt.Errorf("storage: %s: row width %d, want %d", h.name, len(r), h.numCols)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var pg *heapPage
	var pgIdx int
	if n := len(h.pages); n > 0 && len(h.pages[n-1].rows) < h.rowsPerPage {
		pgIdx = n - 1
		pg = h.pages[pgIdx]
	} else {
		pg = &heapPage{rows: make([]datum.Row, 0, h.rowsPerPage)}
		h.pages = append(h.pages, pg)
		pgIdx = len(h.pages) - 1
	}
	pg.rows = append(pg.rows, r.Clone())
	pg.live++
	h.rowCount++
	h.stats.WritePage()
	return RID{Page: int32(pgIdx), Slot: int32(len(pg.rows) - 1)}, nil
}

func (h *heapRelation) locate(rid RID) (*heapPage, error) {
	if rid.Page < 0 || int(rid.Page) >= len(h.pages) {
		return nil, fmt.Errorf("storage: %s: bad page %d", h.name, rid.Page)
	}
	pg := h.pages[rid.Page]
	if rid.Slot < 0 || int(rid.Slot) >= len(pg.rows) {
		return nil, fmt.Errorf("storage: %s: bad slot %s", h.name, rid)
	}
	return pg, nil
}

func (h *heapRelation) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	pg, err := h.locate(rid)
	if err != nil {
		return err
	}
	if pg.rows[rid.Slot] == nil {
		return fmt.Errorf("storage: %s: record %s already deleted", h.name, rid)
	}
	pg.rows[rid.Slot] = nil
	pg.live--
	h.rowCount--
	h.stats.WritePage()
	return nil
}

func (h *heapRelation) Update(rid RID, r datum.Row) error {
	if len(r) != h.numCols {
		return fmt.Errorf("storage: %s: row width %d, want %d", h.name, len(r), h.numCols)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pg, err := h.locate(rid)
	if err != nil {
		return err
	}
	if pg.rows[rid.Slot] == nil {
		return fmt.Errorf("storage: %s: record %s deleted", h.name, rid)
	}
	pg.rows[rid.Slot] = r.Clone()
	h.stats.WritePage()
	return nil
}

// Restore implements Restorer: it puts a deleted record back into its
// original slot, so a rolled-back DELETE reproduces the exact
// pre-statement RIDs and scan order.
func (h *heapRelation) Restore(rid RID, r datum.Row) error {
	if len(r) != h.numCols {
		return fmt.Errorf("storage: %s: row width %d, want %d", h.name, len(r), h.numCols)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pg, err := h.locate(rid)
	if err != nil {
		return err
	}
	if pg.rows[rid.Slot] != nil {
		return fmt.Errorf("storage: %s: slot %s is occupied", h.name, rid)
	}
	pg.rows[rid.Slot] = r.Clone()
	pg.live++
	h.rowCount++
	h.stats.WritePage()
	return nil
}

func (h *heapRelation) Fetch(rid RID) (datum.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pg, err := h.locate(rid)
	if err != nil || pg.rows[rid.Slot] == nil {
		return nil, false
	}
	h.stats.ReadPage()
	return pg.rows[rid.Slot], true
}

func (h *heapRelation) Scan() RowIterator {
	return &heapIterator{rel: h, end: -1}
}

// ScanPages implements PageRangeScanner.
func (h *heapRelation) ScanPages(lo, hi int64) RowIterator {
	return &heapIterator{rel: h, page: int(lo), end: int(hi)}
}

func (h *heapRelation) RowCount() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rowCount
}

func (h *heapRelation) PageCount() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return int64(len(h.pages))
}

func (h *heapRelation) Truncate() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages = nil
	h.rowCount = 0
}

type heapIterator struct {
	rel    *heapRelation
	page   int
	slot   int
	opened bool
	// end bounds the scan to pages [start, end); -1 means unbounded.
	end int
}

func (it *heapIterator) pastEnd(pages int) int {
	if it.end >= 0 && it.end < pages {
		return it.end
	}
	return pages
}

func (it *heapIterator) Next() (datum.Row, RID, bool) {
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	for it.page < it.pastEnd(len(it.rel.pages)) {
		pg := it.rel.pages[it.page]
		if it.slot == 0 {
			it.rel.stats.ReadPage() // first touch of this page
		}
		for it.slot < len(pg.rows) {
			s := it.slot
			it.slot++
			if pg.rows[s] != nil {
				return pg.rows[s], RID{Page: int32(it.page), Slot: int32(s)}, true
			}
		}
		it.page++
		it.slot = 0
	}
	return nil, RID{}, false
}

// NextCols implements ColScanner: stored rows decompose straight into
// b's typed vectors (the vectors are the arena), with page-read
// accounting identical to tuple iteration.
func (it *heapIterator) NextCols(b *datum.ColBatch, max int) int {
	if max <= 0 {
		return 0
	}
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	n := 0
	for n < max && it.page < it.pastEnd(len(it.rel.pages)) {
		pg := it.rel.pages[it.page]
		if it.slot == 0 {
			it.rel.stats.ReadPage()
		}
		for n < max && it.slot < len(pg.rows) {
			s := it.slot
			it.slot++
			if pg.rows[s] == nil {
				continue
			}
			b.AppendRow(pg.rows[s])
			n++
		}
		if it.slot >= len(pg.rows) {
			it.page++
			it.slot = 0
		}
	}
	return n
}

func (it *heapIterator) Close() {}

// ---------------------------------------------------------------------

// FixedManager is the paper's worked storage-manager extension: it
// "handles fixed-length records only — but extremely efficiently". It
// stores rows in one flat slice (no page indirection, denser simulated
// pages) and rejects variable-length (STRING and user-typed) values.
// It exists to prove that Corona invokes the correct storage manager
// per table; see TestFixedStorageManager and the quickstart example.
type FixedManager struct {
	rowsPerPage int
}

// NewFixedManager returns the fixed-length storage manager. Its pages
// hold four times as many records as the default heap, modeling the
// density advantage of fixed-length layouts.
func NewFixedManager() *FixedManager { return &FixedManager{rowsPerPage: 256} }

// Name implements StorageManager.
func (*FixedManager) Name() string { return "FIXED" }

// Create implements StorageManager.
func (m *FixedManager) Create(tableName string, numCols int, stats *IOStats) (Relation, error) {
	if numCols <= 0 {
		return nil, fmt.Errorf("storage: table %s must have columns", tableName)
	}
	return &fixedRelation{name: tableName, numCols: numCols, rowsPerPage: m.rowsPerPage, stats: stats}, nil
}

type fixedRelation struct {
	mu          sync.RWMutex
	name        string
	numCols     int
	rowsPerPage int
	rows        []datum.Row // nil = deleted
	live        int64
	stats       *IOStats
}

func (f *fixedRelation) checkFixed(r datum.Row) error {
	for i, v := range r {
		switch v.Type() {
		case datum.TNull, datum.TBool, datum.TInt, datum.TFloat:
		default:
			return fmt.Errorf("storage: FIXED manager: column %d of %s is variable-length (%s)",
				i, f.name, datum.TypeName(v.Type()))
		}
	}
	return nil
}

func (f *fixedRelation) Insert(r datum.Row) (RID, error) {
	if len(r) != f.numCols {
		return RID{}, fmt.Errorf("storage: %s: row width %d, want %d", f.name, len(r), f.numCols)
	}
	if err := f.checkFixed(r); err != nil {
		return RID{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rows = append(f.rows, r.Clone())
	f.live++
	f.stats.WritePage()
	n := len(f.rows) - 1
	return RID{Page: int32(n / f.rowsPerPage), Slot: int32(n % f.rowsPerPage)}, nil
}

func (f *fixedRelation) idx(rid RID) (int, error) {
	i := int(rid.Page)*f.rowsPerPage + int(rid.Slot)
	if i < 0 || i >= len(f.rows) {
		return 0, fmt.Errorf("storage: %s: bad rid %s", f.name, rid)
	}
	return i, nil
}

func (f *fixedRelation) Delete(rid RID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, err := f.idx(rid)
	if err != nil {
		return err
	}
	if f.rows[i] == nil {
		return fmt.Errorf("storage: %s: record %s already deleted", f.name, rid)
	}
	f.rows[i] = nil
	f.live--
	f.stats.WritePage()
	return nil
}

func (f *fixedRelation) Update(rid RID, r datum.Row) error {
	if err := f.checkFixed(r); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, err := f.idx(rid)
	if err != nil {
		return err
	}
	if f.rows[i] == nil {
		return fmt.Errorf("storage: %s: record %s deleted", f.name, rid)
	}
	f.rows[i] = r.Clone()
	f.stats.WritePage()
	return nil
}

// Restore implements Restorer (see heapRelation.Restore).
func (f *fixedRelation) Restore(rid RID, r datum.Row) error {
	if err := f.checkFixed(r); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, err := f.idx(rid)
	if err != nil {
		return err
	}
	if f.rows[i] != nil {
		return fmt.Errorf("storage: %s: slot %s is occupied", f.name, rid)
	}
	f.rows[i] = r.Clone()
	f.live++
	f.stats.WritePage()
	return nil
}

func (f *fixedRelation) Fetch(rid RID) (datum.Row, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, err := f.idx(rid)
	if err != nil || f.rows[i] == nil {
		return nil, false
	}
	f.stats.ReadPage()
	return f.rows[i], true
}

func (f *fixedRelation) Scan() RowIterator {
	return &fixedIterator{rel: f, end: -1}
}

// ScanPages implements PageRangeScanner.
func (f *fixedRelation) ScanPages(lo, hi int64) RowIterator {
	return &fixedIterator{rel: f, i: int(lo) * f.rowsPerPage, end: int(hi)}
}

func (f *fixedRelation) RowCount() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.live
}

func (f *fixedRelation) PageCount() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64((len(f.rows) + f.rowsPerPage - 1) / f.rowsPerPage)
}

func (f *fixedRelation) Truncate() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rows = nil
	f.live = 0
}

type fixedIterator struct {
	rel *fixedRelation
	i   int
	// end bounds the scan to rows of pages [_, end); -1 means unbounded.
	end int
}

func (it *fixedIterator) stop(total int) int {
	if it.end < 0 {
		return total
	}
	if s := it.end * it.rel.rowsPerPage; s < total {
		return s
	}
	return total
}

func (it *fixedIterator) Next() (datum.Row, RID, bool) {
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	for it.i < it.stop(len(it.rel.rows)) {
		i := it.i
		it.i++
		if i%it.rel.rowsPerPage == 0 {
			it.rel.stats.ReadPage()
		}
		if it.rel.rows[i] != nil {
			return it.rel.rows[i],
				RID{Page: int32(i / it.rel.rowsPerPage), Slot: int32(i % it.rel.rowsPerPage)}, true
		}
	}
	return nil, RID{}, false
}

// NextCols implements ColScanner (see heapIterator.NextCols).
func (it *fixedIterator) NextCols(b *datum.ColBatch, max int) int {
	if max <= 0 {
		return 0
	}
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	n := 0
	for n < max && it.i < it.stop(len(it.rel.rows)) {
		i := it.i
		it.i++
		if i%it.rel.rowsPerPage == 0 {
			it.rel.stats.ReadPage()
		}
		if it.rel.rows[i] == nil {
			continue
		}
		b.AppendRow(it.rel.rows[i])
		n++
	}
	return n
}

func (it *fixedIterator) Close() {}
