// Package storage is the reproduction of the parts of Core — the
// Starburst data manager — that Corona, the language processor, drives:
// record management (locating, retrieving, storing records), and the
// data management extension architecture of [LIND87] that lets a
// database customizer add new storage managers and new kinds of
// attachments (access methods) such as B-trees or R-trees.
//
// The paper's Core also provides buffer management, concurrency control
// and recovery; those are below the interfaces Corona uses and are
// substituted here by an in-memory page-structured store that counts
// simulated page I/O, so that the optimizer's cost model has real
// signals to validate against (see DESIGN.md, "Substitutions").
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
)

// RID identifies a stored record: page number and slot within the page.
type RID struct {
	Page int32
	Slot int32
}

// String renders a RID for debugging.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Less orders RIDs, used as a duplicate-key tiebreak in attachments.
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// IOStats counts simulated I/O so experiments can observe access-path
// behaviour. A DB owns one; all relations of that DB share it. The
// counters are atomic: a page or B-tree node visit costs one atomic add,
// not a DB-wide lock that every session contends on.
type IOStats struct {
	reads, writes, index atomic.Int64
}

// ReadPage records one simulated page read.
func (s *IOStats) ReadPage() {
	if s != nil {
		s.reads.Add(1)
	}
}

// WritePage records one simulated page write.
func (s *IOStats) WritePage() {
	if s != nil {
		s.writes.Add(1)
	}
}

// ReadIndex records one simulated index node read.
func (s *IOStats) ReadIndex() {
	if s != nil {
		s.index.Add(1)
	}
}

// Snapshot returns current counters.
func (s *IOStats) Snapshot() (reads, writes, index int64) {
	return s.reads.Load(), s.writes.Load(), s.index.Load()
}

// Reset zeroes the counters.
func (s *IOStats) Reset() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.index.Store(0)
}

// RowIterator streams stored records. It is all a storage manager has
// to provide to be scanned: the executor's table cursor resolves MVCC
// visibility per record and adapts the rows into column vectors itself.
type RowIterator interface {
	// Next returns the next record, its RID, and whether one was
	// produced. Next cannot fail; a fallible iterator reports a deferred
	// error through an Err method that the consumer reads (IterErr) once
	// Next reports exhaustion. The returned row is read-only and valid
	// until the iterator's next call (see Relation).
	Next() (datum.Row, RID, bool)
	// Close releases iterator resources.
	Close()
}

// ColScanner is an optional RowIterator capability, one of the two the
// executor probes for (PageRangeScanner, on the Relation, is the
// other): decompose up to max stored records directly into the column
// vectors of b, appending after whatever b already holds, and return
// how many rows were appended. Zero means exhaustion (a ColScanner
// never returns a zero count with records remaining). The vectors are
// the arena — values are copied into typed lanes with no per-row
// allocation. Page-read accounting is identical to tuple iteration, and
// a ColScanner shares one scan position with Next, so the two may be
// interleaved. The one in-memory iterator (HEAP, and FIXED as a HEAP
// configuration), which copies runs of its page lanes, and the DISK
// iterator (which decodes pinned pages straight into the vectors)
// implement it; iterators that do not (fault-wrapped decorations,
// VIRTUAL, DBC extensions) are drained through Next into the same
// vectors.
type ColScanner interface {
	NextCols(b *datum.ColBatch, max int) int
}

// PageRangeScanner is an optional Relation capability: scan only pages
// [lo, hi) of the relation. Exchange operators use it to split one
// table scan into disjoint morsels claimed dynamically by parallel
// workers; the union of the per-range scans over a partition of
// [0, PageCount()) is exactly Scan().
type PageRangeScanner interface {
	ScanPages(lo, hi int64) RowIterator
}

// Relation is a handle to a stored table, the unit a storage manager
// manages. All built-in and DBC storage managers produce Relations.
//
// Insert and Update copy the row they are handed. What a relation
// stores it may overwrite in place (HEAP's lanes), so no read path hands
// it out: NextCols copies records into the batch's lanes, never aliasing
// them; Next assembles into a row the iterator owns, valid until its
// next call; Fetch returns a row the caller owns, and FetchInto
// (RowFiller) fills one without allocating. STRING values handed out may
// share bytes with storage and each other (strings are immutable).
type Relation interface {
	// Insert stores a record and returns its RID.
	Insert(r datum.Row) (RID, error)
	// Delete removes the record at rid.
	Delete(rid RID) error
	// Update replaces the record at rid.
	Update(rid RID, r datum.Row) error
	// Fetch retrieves a single record by RID.
	Fetch(rid RID) (datum.Row, bool)
	// Scan streams every record. When stats is enabled each page
	// touched counts one read.
	Scan() RowIterator
	// RowCount reports the number of stored records.
	RowCount() int64
	// PageCount reports the number of simulated pages occupied.
	PageCount() int64
}

// RowFiller is an optional Relation capability: FetchInto fills dst,
// one value per column, with the record at rid, allocating nothing, and
// reports whether there was one. HEAP, FIXED and DISK implement it.
type RowFiller interface {
	FetchInto(rid RID, dst datum.Row) bool
}

// Rewinder is an optional RowIterator capability: Rewind restarts it as
// a fresh Scan or ScanPages would, even after Close, for reuse.
type Rewinder interface {
	Rewind()
}

// Tombstoner is implemented by a Relation that logs a transaction's
// DELETE when it happens. The record itself stays until the version GC
// reaps it through Delete, since older snapshots still read it; a
// durable manager must still not bring it back after a crash.
type Tombstoner interface {
	// Tombstone records the deletion of the record at rid.
	Tombstone(rid RID) error
	// Untombstone withdraws a tombstone whose DELETE rolled back.
	Untombstone(rid RID)
}

// StorageManager creates Relations. DBCs register additional managers
// (the paper's example: one that "handles fixed-length records only —
// but extremely efficiently"); Corona must invoke the correct manager
// when a table is accessed, which it does by recording the manager name
// in the catalog.
type StorageManager interface {
	// Name identifies the manager in CREATE TABLE ... USING <name>.
	Name() string
	// Create allocates storage for a table of the given width.
	Create(tableName string, numCols int, stats *IOStats) (Relation, error)
}

// ---------------------------------------------------------------------
// Access methods (attachments)

// Bound is one end of a key range; Unbounded means no constraint.
type Bound struct {
	Key       datum.Row
	Inclusive bool
	Unbounded bool
}

// Unbounded is the missing bound.
var Unbounded = Bound{Unbounded: true}

// Include constructs an inclusive bound.
func Include(key datum.Row) Bound { return Bound{Key: key, Inclusive: true} }

// Exclude constructs an exclusive bound.
func Exclude(key datum.Row) Bound { return Bound{Key: key} }

// Entry is a key/RID pair stored in an attachment. Key is read-only:
// it may alias the attachment's own storage (the B-tree hands out its
// stored key cells), which the attachment never writes afterwards, so
// a caller may keep a key past later writes but must not write into it.
type Entry struct {
	Key datum.Row
	RID RID
}

// EntryIterator streams index entries in key order (where the access
// method is ordered). A caller must not use an iterator after Close,
// except that IterErr(it) stays valid: it returns nil for the B-tree's
// and R-tree's own iterators, which Close hands back for reuse, and a
// fault wrapper's error as before.
type EntryIterator interface {
	Next() (Entry, bool)
	Close()
}

// Attachment is an index instance attached to a relation, per the data
// management extension architecture. Implementations include the
// built-in B-tree and the R-tree extension.
type Attachment interface {
	// Insert adds an entry.
	Insert(key datum.Row, rid RID) error
	// Delete removes an entry (key and rid must both match).
	Delete(key datum.Row, rid RID) error
	// Search streams entries with key in [lo, hi] under the method's
	// ordering. Unordered methods may reject range searches. It must
	// not retain lo.Key or hi.Key, which callers reuse. The keys of the
	// entries it yields are read-only and may alias the index's
	// storage, which never changes them.
	Search(lo, hi Bound) EntryIterator
	// Len reports the number of entries.
	Len() int64
}

// entryIters holds closed B-tree and R-tree iterators, newest on top,
// for later searches to reuse: Search takes one, Close gives it back,
// so a search whose entry list has grown to its range once allocates
// nothing. It is a bounded stack, not a sync.Pool: under the race
// detector a Pool drops a quarter of what it is given, and a correlated
// index scan searches once per outer row. At most maxFreeIters wait,
// none with room for more than maxKeptEntries entries, so the stack
// pins at most 8 MiB.
var entryIters struct {
	sync.Mutex
	free []*sliceEntryIterator
}

const maxFreeIters, maxKeptEntries = 16, 1 << 14

// sliceEntryIterator streams the entry list a search materialized into
// it; the list keeps its capacity from one search to the next.
type sliceEntryIterator struct {
	entries []Entry
	i       int
	closed  bool
}

// searchWith returns a recycled iterator holding the entries fill
// appends for [lo, hi].
func searchWith(fill func(lo, hi Bound, out []Entry) []Entry, lo, hi Bound) EntryIterator {
	var it *sliceEntryIterator
	entryIters.Lock()
	if n := len(entryIters.free); n > 0 {
		it, entryIters.free[n-1] = entryIters.free[n-1], nil
		entryIters.free = entryIters.free[:n-1]
	}
	entryIters.Unlock()
	if it == nil {
		it = new(sliceEntryIterator)
	}
	it.entries, it.closed = fill(lo, hi, it.entries), false
	return it
}

func (it *sliceEntryIterator) Next() (Entry, bool) {
	if it.i >= len(it.entries) {
		return Entry{}, false
	}
	e := it.entries[it.i]
	it.i++
	return e, true
}

// Close empties the list, so no key cell stays pinned, and gives the
// iterator back once, however often it is called.
func (it *sliceEntryIterator) Close() {
	if it.closed {
		return
	}
	clear(it.entries)
	it.entries, it.i, it.closed = it.entries[:0], 0, true
	entryIters.Lock()
	if len(entryIters.free) < maxFreeIters && cap(it.entries) <= maxKeptEntries {
		entryIters.free = append(entryIters.free, it)
	}
	entryIters.Unlock()
}

// AccessMethodCaps describes what an access method can do; the
// optimizer consults this when matching predicates to attachments.
type AccessMethodCaps struct {
	// Ordered access methods produce entries in key order, usable to
	// satisfy ORDER BY and merge-join input requirements.
	Ordered bool
	// Equality supports exact-key lookup.
	Equality bool
	// Range supports one-dimensional key ranges.
	Range bool
	// Spatial supports multi-dimensional window queries (each key
	// column independently range-constrained), the R-tree case.
	Spatial bool
}

// AccessMethod is a kind of attachment a DBC may register (B-tree is
// built in; the paper's example extension is an R-tree [GUTT84]).
type AccessMethod interface {
	// Name identifies the method in CREATE INDEX ... USING <name>.
	Name() string
	// Caps reports the method's capabilities.
	Caps() AccessMethodCaps
	// New creates an attachment instance for keys of the given types.
	New(keyTypes []datum.TypeID, unique bool, stats *IOStats) (Attachment, error)
}

// CompareKeys orders composite keys lexicographically with the total
// order of datum.SortCompare; shorter prefixes compare less when equal
// so far (enables prefix searches).
func CompareKeys(a, b datum.Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := datum.SortCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Registries (the extension architecture)

// DuplicateError reports an attempt to register a storage manager or
// access method under a name that is already taken. Extensions must
// pick distinct names; replacing a live manager would silently reroute
// every table that recorded the old name in the catalog.
type DuplicateError struct {
	Kind string // "storage manager" or "access method"
	Name string
}

// Error implements error.
func (e *DuplicateError) Error() string {
	return fmt.Sprintf("storage: %s %q already registered", e.Kind, e.Name)
}

// Registry holds the storage managers and access methods known to one
// database instance.
type Registry struct {
	mu         sync.RWMutex
	mgrs       map[string]StorageManager
	methods    map[string]AccessMethod
	defaultMgr string
}

// NewRegistry returns a registry seeded with the built-in heap storage
// manager and B-tree access method; HEAP is the default manager.
func NewRegistry() *Registry {
	heap := NewHeapManager(64)
	bt := BTreeMethod{}
	return &Registry{
		mgrs:       map[string]StorageManager{heap.Name(): heap},
		methods:    map[string]AccessMethod{bt.Name(): bt},
		defaultMgr: heap.Name(),
	}
}

// RegisterStorageManager installs a storage manager by name, rejecting
// duplicates with a *DuplicateError.
func (r *Registry) RegisterStorageManager(m StorageManager) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.mgrs[m.Name()]; ok {
		return &DuplicateError{Kind: "storage manager", Name: m.Name()}
	}
	r.mgrs[m.Name()] = m
	return nil
}

// RegisterAccessMethod installs an access method (attachment type),
// rejecting duplicates with a *DuplicateError.
func (r *Registry) RegisterAccessMethod(m AccessMethod) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.methods[m.Name()]; ok {
		return &DuplicateError{Kind: "access method", Name: m.Name()}
	}
	r.methods[m.Name()] = m
	return nil
}

// ReplaceStorageManager installs a manager under its name even when the
// name is taken. This is the decoration hook: fault injection swaps a
// registered manager for a wrapped one (and back) under the same name,
// which duplicate rejection must not break.
func (r *Registry) ReplaceStorageManager(m StorageManager) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mgrs[m.Name()] = m
}

// ReplaceAccessMethod installs an access method under its name even
// when the name is taken; the decoration counterpart of
// ReplaceStorageManager.
func (r *Registry) ReplaceAccessMethod(m AccessMethod) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.methods[m.Name()] = m
}

// SetDefaultStorageManager selects the manager an empty USING clause
// resolves to. The named manager must be registered.
func (r *Registry) SetDefaultStorageManager(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.mgrs[name]; !ok {
		return fmt.Errorf("storage: unknown storage manager %q", name)
	}
	r.defaultMgr = name
	return nil
}

// DefaultStorageManager reports the manager an empty USING clause
// resolves to.
func (r *Registry) DefaultStorageManager() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultMgr
}

// StorageManager resolves a manager by name; empty name means the
// registry's default manager (HEAP unless reconfigured).
func (r *Registry) StorageManager(name string) (StorageManager, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultMgr
	}
	m, ok := r.mgrs[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown storage manager %q", name)
	}
	return m, nil
}

// AccessMethod resolves an access method by name; empty means B-tree.
func (r *Registry) AccessMethod(name string) (AccessMethod, error) {
	if name == "" {
		name = "BTREE"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.methods[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown access method %q", name)
	}
	return m, nil
}

// StorageManagerNames lists registered managers, sorted.
func (r *Registry) StorageManagerNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n := range r.mgrs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AccessMethodNames lists registered access methods, sorted.
func (r *Registry) AccessMethodNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n := range r.methods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
