package storage

import (
	"fmt"
	"sync"

	"repro/internal/datum"
)

// VirtualManager is a read-only storage manager whose relations
// materialize their rows from a registered snapshot function each time
// they are scanned. It is the third Registry entry beside HEAP and
// DISK, and backs the SYS introspection schema: the engine registers
// one source per SYS table, the catalog registers the tables normally,
// and queries over live engine state run through the ordinary
// parse→QGM→optimize→exec path.
//
// Sources return a complete snapshot up front, so iteration holds no
// engine locks: a scan can be cancelled, fault-injected or abandoned
// mid-way without deadlocking against the state it observes, and a
// query joining two SYS tables never observes either one mid-update.
type VirtualManager struct {
	name    string
	mu      sync.RWMutex
	sources map[string]VirtualSource
}

// VirtualSource produces one snapshot of a virtual table's rows. The
// returned rows are owned by the iterator; sources must not retain or
// mutate them after returning.
type VirtualSource func() ([]datum.Row, error)

// NewVirtualManager returns a virtual manager registering under the
// given name (the SYS schema uses "SYS").
func NewVirtualManager(name string) *VirtualManager {
	return &VirtualManager{name: name, sources: map[string]VirtualSource{}}
}

// Name implements StorageManager.
func (m *VirtualManager) Name() string { return m.name }

// SetSource registers (or replaces) the snapshot function behind a
// table. Tables may be created before their source exists; scanning a
// sourceless table yields a deferred iterator error.
func (m *VirtualManager) SetSource(tableName string, src VirtualSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sources[tableName] = src
}

func (m *VirtualManager) source(tableName string) VirtualSource {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sources[tableName]
}

// Create implements StorageManager.
func (m *VirtualManager) Create(tableName string, numCols int, stats *IOStats) (Relation, error) {
	if numCols <= 0 {
		return nil, fmt.Errorf("storage: table %s must have columns", tableName)
	}
	return &virtualRelation{mgr: m, name: tableName, numCols: numCols, stats: stats}, nil
}

// virtualRelation is a read-only view over its manager's source.
// Mutations fail with a typed ReadOnlyError; the engine additionally
// rejects DML/DDL against system tables at compile time, so these are
// defense in depth for direct storage-API callers.
type virtualRelation struct {
	mgr     *VirtualManager
	name    string
	numCols int
	stats   *IOStats
}

// ReadOnlyError reports a mutation attempted on a read-only (virtual)
// relation.
type ReadOnlyError struct {
	Table string
	Op    string
}

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("storage: %s on read-only table %s", e.Op, e.Table)
}

func (r *virtualRelation) Insert(datum.Row) (RID, error) {
	return RID{}, &ReadOnlyError{Table: r.name, Op: "INSERT"}
}

func (r *virtualRelation) Delete(RID) error {
	return &ReadOnlyError{Table: r.name, Op: "DELETE"}
}

func (r *virtualRelation) Update(RID, datum.Row) error {
	return &ReadOnlyError{Table: r.name, Op: "UPDATE"}
}

func (r *virtualRelation) snapshot() ([]datum.Row, error) {
	src := r.mgr.source(r.name)
	if src == nil {
		return nil, fmt.Errorf("storage: virtual table %s has no source", r.name)
	}
	return src()
}

// Fetch re-snapshots and resolves the synthetic RID assigned by a
// previous scan; rows may have shifted between snapshots, so RIDs over
// virtual tables are best-effort (SYS tables carry no indexes).
func (r *virtualRelation) Fetch(rid RID) (datum.Row, bool) {
	rows, err := r.snapshot()
	if err != nil || rid.Page != 0 || rid.Slot < 0 || int(rid.Slot) >= len(rows) {
		return nil, false
	}
	r.stats.ReadPage()
	return rows[rid.Slot], true
}

// Scan implements Relation: the snapshot is taken eagerly, so the
// iterator touches no engine state (and takes no locks) after Scan
// returns. A source error is deferred to IterErr, the storage layer's
// convention for scan-time failures.
func (r *virtualRelation) Scan() RowIterator {
	rows, err := r.snapshot()
	if err == nil {
		r.stats.ReadPage()
	}
	return &virtualIterator{rows: rows, err: err}
}

func (r *virtualRelation) RowCount() int64 {
	rows, err := r.snapshot()
	if err != nil {
		return 0
	}
	return int64(len(rows))
}

func (r *virtualRelation) PageCount() int64 {
	// One simulated page: snapshots are materialized wholesale, so the
	// optimizer should never parallelize or heavily cost SYS scans.
	return 1
}

type virtualIterator struct {
	rows []datum.Row
	i    int
	err  error
}

func (it *virtualIterator) Next() (datum.Row, RID, bool) {
	if it.err != nil || it.i >= len(it.rows) {
		return nil, RID{}, false
	}
	i := it.i
	it.i++
	return it.rows[i], RID{Page: 0, Slot: int32(i)}, true
}

// IterErr reports a snapshot failure, deferred per the storage
// iterator convention (see storage.IterErr).
func (it *virtualIterator) IterErr() error { return it.err }

func (it *virtualIterator) Close() {}
