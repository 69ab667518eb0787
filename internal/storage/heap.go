package storage

import (
	"fmt"
	"sync"

	"repro/internal/datum"
)

// HeapManager is the default storage manager: an unordered heap of
// pages, each holding its records in typed column lanes (heapPage).
// Page granularity is simulated (rowsPerPage records per page) so scans
// charge realistic page-read counts to IOStats.
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
// default one, and which rejects variable-length (STRING and
// user-typed) values, so its every column is an 8-byte or BOOL lane
// plus a NULL bitmap: the density of a fixed-length layout is real. It
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
	pages       []heapPage
	rowCount    int64
	stats       *IOStats
}

// heapPage holds up to rowsPerPage records in typed column lanes (PAX):
// slot s is element s of every column; dead marks deleted slots. A
// column takes the lane of its first non-NULL value, and boxes for the
// page on a user-typed value or one the lane cannot hold (written past
// the catalog's coercion). A lane takes room slots at once: a full page,
// except on a relation's first page, which grows so tiny tables stay so.
type heapPage struct {
	cols    []datum.ColVec
	dead    datum.NullBitmap
	n, room int
}

// set writes x to slot s of column c.
func (p *heapPage) set(c, s int, x datum.Value) {
	v := &p.cols[c]
	if v.Typ == datum.TNull && (v.Boxed == nil || !x.IsNull()) {
		// A new column, or one of NULLs only: give it x's lane.
		n := len(v.Boxed)
		*v = datum.ColVec{Typ: x.Type()}
		switch x.Type() {
		case datum.TBool:
			v.Bools = make([]bool, 0, max(p.room, n+1))
		case datum.TInt:
			v.Ints = make([]int64, 0, max(p.room, n+1))
		case datum.TFloat:
			v.Floats = make([]float64, 0, max(p.room, n+1))
		case datum.TString:
			v.Strs = make([]string, 0, max(p.room, n+1))
		default:
			v.Boxed = make([]datum.Value, 0, n+1)
		}
		for range n {
			v.AppendValue(datum.Null)
		}
	}
	if s == v.Len() {
		v.AppendValue(datum.Null)
	}
	v.SetValue(s, x)
}

// load assembles slot s into row.
func (p *heapPage) load(row datum.Row, s int) datum.Row {
	for c := range p.cols {
		row[c] = p.cols[c].ValueAt(s)
	}
	return row
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

// live locates the page of rid's live record; the caller holds mu.
func (h *heapRelation) live(rid RID) (*heapPage, error) {
	if rid.Page < 0 || int(rid.Page) >= len(h.pages) || rid.Slot < 0 || int(rid.Slot) >= h.pages[rid.Page].n {
		return nil, fmt.Errorf("storage: %s: bad rid %s", h.name, rid)
	}
	p := &h.pages[rid.Page]
	if p.dead.Get(int(rid.Slot)) {
		return nil, fmt.Errorf("storage: %s: record %s deleted", h.name, rid)
	}
	return p, nil
}

func (h *heapRelation) Insert(r datum.Row) (RID, error) {
	if err := h.check(r); err != nil {
		return RID{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.pages)
	if n == 0 || h.pages[n-1].n == h.rowsPerPage {
		h.pages = append(h.pages, heapPage{cols: make([]datum.ColVec, h.numCols), room: min(n, 1) * h.rowsPerPage})
		n++
	}
	p := &h.pages[n-1]
	for c, x := range r {
		p.set(c, p.n, x)
	}
	p.n++
	h.rowCount++
	h.stats.WritePage()
	return RID{Page: int32(n - 1), Slot: int32(p.n - 1)}, nil
}

// Delete marks the slot dead and clears it, to pin no payload.
func (h *heapRelation) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.live(rid)
	if err != nil {
		return err
	}
	p.dead.Set(int(rid.Slot))
	for c := range p.cols {
		p.cols[c].SetValue(int(rid.Slot), datum.Null)
	}
	h.rowCount--
	h.stats.WritePage()
	return nil
}

// Update writes r into the record's lanes in place.
func (h *heapRelation) Update(rid RID, r datum.Row) error {
	if err := h.check(r); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.live(rid)
	if err != nil {
		return err
	}
	for c, x := range r {
		p.set(c, int(rid.Slot), x)
	}
	h.stats.WritePage()
	return nil
}

func (h *heapRelation) Fetch(rid RID) (datum.Row, bool) {
	row := make(datum.Row, h.numCols)
	return row, h.FetchInto(rid, row)
}

// FetchInto implements RowFiller.
func (h *heapRelation) FetchInto(rid RID, dst datum.Row) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	p, err := h.live(rid)
	if err == nil {
		h.stats.ReadPage()
		p.load(dst, int(rid.Slot))
	}
	return err == nil
}

func (h *heapRelation) Scan() RowIterator {
	return &heapIterator{rel: h, end: -1}
}

// ScanPages implements PageRangeScanner.
func (h *heapRelation) ScanPages(lo, hi int64) RowIterator {
	return &heapIterator{rel: h, start: int32(lo), page: int32(lo), end: int32(hi)}
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

// heapIterator scans pages [start, end) (end -1: to the last page),
// standing at slot on page; Next assembles records into row.
type heapIterator struct {
	rel                    *heapRelation
	start, page, slot, end int32
	row                    datum.Row
}

// run is the one scan loop: it returns the page of the next run of at
// most max live records, slots [lo, hi), and advances past it, counting
// a page read on each page's first touch. The caller holds rel.mu.
func (it *heapIterator) run(max int) (p *heapPage, lo, hi int) {
	end := int32(len(it.rel.pages))
	if it.end >= 0 {
		end = min(end, it.end)
	}
	for ; it.page < end; it.page, it.slot = it.page+1, 0 {
		p = &it.rel.pages[it.page]
		if it.slot == 0 {
			it.rel.stats.ReadPage()
		}
		s := int(it.slot)
		for s < p.n && p.dead.Get(s) {
			s++
		}
		lo = s
		for s < p.n && s-lo < max && !p.dead.Get(s) {
			s++
		}
		it.slot = int32(s)
		if lo < s {
			return p, lo, s
		}
	}
	return nil, 0, 0
}

// Next assembles the next record into the iterator's row.
func (it *heapIterator) Next() (datum.Row, RID, bool) {
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	p, lo, _ := it.run(1)
	if p == nil {
		return nil, RID{}, false
	}
	if it.row == nil {
		it.row = make(datum.Row, it.rel.numCols)
	}
	return p.load(it.row, lo), RID{Page: it.page, Slot: int32(lo)}, true
}

// NextCols implements ColScanner: runs of live records copy from the
// page lanes into b's, under one read lock per batch.
func (it *heapIterator) NextCols(b *datum.ColBatch, max int) int {
	it.rel.mu.RLock()
	defer it.rel.mu.RUnlock()
	n := 0
	for n < max {
		p, lo, hi := it.run(max - n)
		if p == nil {
			break
		}
		b.AppendRange(p.cols, lo, hi)
		n += hi - lo
	}
	return n
}

// Rewind implements Rewinder.
func (it *heapIterator) Rewind() { it.page, it.slot = it.start, 0 }

func (it *heapIterator) Close() {}
