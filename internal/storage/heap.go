package storage

import (
	"fmt"
	"sync"

	"repro/internal/datum"
)

// HeapManager is the default storage manager: an unordered heap of
// slotted pages. Page granularity is simulated (rowsPerPage records per
// page) so scans charge realistic page-read counts to IOStats.
//
// The paper's worked storage-manager extension, one that "handles
// fixed-length records only — but extremely efficiently", is a
// configuration of the same heap (NewFixedManager): denser pages, and a
// write check that rejects variable-length values.
type HeapManager struct {
	name        string
	rowsPerPage int
	fixedOnly   bool
}

// NewHeapManager returns a heap manager with the given simulated page
// capacity (records per page).
func NewHeapManager(rowsPerPage int) *HeapManager {
	if rowsPerPage <= 0 {
		rowsPerPage = 64
	}
	return &HeapManager{name: "HEAP", rowsPerPage: rowsPerPage}
}

// NewFixedManager returns the FIXED manager, the paper's fixed-length
// example: a heap whose pages hold four times as many records as the
// default one, modeling the density advantage of fixed-length layouts,
// and which rejects variable-length (STRING and user-typed) values. It
// exists to prove that Corona invokes the correct storage manager per
// table; see TestFixedStorageManager and the dbc example.
func NewFixedManager() *HeapManager {
	return &HeapManager{name: "FIXED", rowsPerPage: 256, fixedOnly: true}
}

// Name implements StorageManager.
func (m *HeapManager) Name() string { return m.name }

// Create implements StorageManager.
func (m *HeapManager) Create(tableName string, numCols int, stats *IOStats) (Relation, error) {
	if numCols <= 0 {
		return nil, fmt.Errorf("storage: table %s must have columns", tableName)
	}
	return &heapRelation{
		name:        tableName,
		numCols:     numCols,
		rowsPerPage: m.rowsPerPage,
		fixedOnly:   m.fixedOnly,
		stats:       stats,
	}, nil
}

type heapRelation struct {
	mu          sync.RWMutex
	name        string
	numCols     int
	rowsPerPage int
	fixedOnly   bool
	pages       [][]datum.Row // nil slot = deleted
	rowCount    int64
	stats       *IOStats
}

// check validates a row on every write path: its width and, under
// FIXED, that every value is fixed-length.
func (h *heapRelation) check(r datum.Row) error {
	if len(r) != h.numCols {
		return fmt.Errorf("storage: %s: row width %d, want %d", h.name, len(r), h.numCols)
	}
	if !h.fixedOnly {
		return nil
	}
	for i, v := range r {
		switch v.Type() {
		case datum.TNull, datum.TBool, datum.TInt, datum.TFloat:
		default:
			return fmt.Errorf("storage: FIXED manager: column %d of %s is variable-length (%s)",
				i, h.name, datum.TypeName(v.Type()))
		}
	}
	return nil
}

// slot locates rid's slot; the caller holds mu.
func (h *heapRelation) slot(rid RID) (*datum.Row, error) {
	if rid.Page < 0 || int(rid.Page) >= len(h.pages) || rid.Slot < 0 || int(rid.Slot) >= len(h.pages[rid.Page]) {
		return nil, fmt.Errorf("storage: %s: bad rid %s", h.name, rid)
	}
	return &h.pages[rid.Page][rid.Slot], nil
}

func (h *heapRelation) Insert(r datum.Row) (RID, error) {
	if err := h.check(r); err != nil {
		return RID{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.pages)
	if n == 0 || len(h.pages[n-1]) == h.rowsPerPage {
		h.pages = append(h.pages, make([]datum.Row, 0, h.rowsPerPage))
		n++
	}
	h.pages[n-1] = append(h.pages[n-1], r.Clone())
	h.rowCount++
	h.stats.WritePage()
	return RID{Page: int32(n - 1), Slot: int32(len(h.pages[n-1]) - 1)}, nil
}

func (h *heapRelation) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, err := h.slot(rid)
	if err != nil {
		return err
	}
	if *s == nil {
		return fmt.Errorf("storage: %s: record %s already deleted", h.name, rid)
	}
	*s = nil
	h.rowCount--
	h.stats.WritePage()
	return nil
}

func (h *heapRelation) Update(rid RID, r datum.Row) error {
	if err := h.check(r); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s, err := h.slot(rid)
	if err != nil {
		return err
	}
	if *s == nil {
		return fmt.Errorf("storage: %s: record %s deleted", h.name, rid)
	}
	*s = r.Clone()
	h.stats.WritePage()
	return nil
}

func (h *heapRelation) Fetch(rid RID) (datum.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, err := h.slot(rid)
	if err != nil || *s == nil {
		return nil, false
	}
	h.stats.ReadPage()
	return *s, true
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

type heapIterator struct {
	rel  *heapRelation
	page int
	slot int
	// end bounds the scan to pages [start, end); -1 means unbounded.
	end int
}

// step is the one scan loop: it returns the next live record and
// advances past it, counting a page read on the first touch of each
// page. The caller holds rel.mu for reading.
func (it *heapIterator) step() (datum.Row, RID, bool) {
	pages := it.rel.pages
	end := len(pages)
	if it.end >= 0 && it.end < end {
		end = it.end
	}
	for ; it.page < end; it.page, it.slot = it.page+1, 0 {
		pg := pages[it.page]
		if it.slot == 0 {
			it.rel.stats.ReadPage()
		}
		for it.slot < len(pg) {
			s := it.slot
			it.slot++
			if pg[s] != nil {
				return pg[s], RID{Page: int32(it.page), Slot: int32(s)}, true
			}
		}
	}
	return nil, RID{}, false
}

func (it *heapIterator) Next() (datum.Row, RID, bool) {
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	return it.step()
}

// NextCols implements ColScanner: stored rows decompose straight into
// b's typed vectors (the vectors are the arena), one read lock per
// batch, through the same step as Next.
func (it *heapIterator) NextCols(b *datum.ColBatch, max int) int {
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	n := 0
	for n < max {
		row, _, ok := it.step()
		if !ok {
			break
		}
		b.AppendRow(row)
		n++
	}
	return n
}

func (it *heapIterator) Close() {}
