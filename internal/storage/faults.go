package storage

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/datum"
	"repro/internal/ident"
)

// This file implements deterministic fault injection for the storage
// layer. The paper's Core provides recovery below the interfaces Corona
// uses; our reproduction substitutes it away, so the only way to
// exercise the error paths under the QES is to make the store fail on
// purpose. A FaultInjector decorates any registered StorageManager or
// AccessMethod through the same registries a DBC would use ([LIND87]'s
// extension architecture doubles as a test harness): the wrapped
// manager keeps its name, so re-registering it transparently replaces
// the original for all future CREATE TABLE statements, and existing
// relations and attachments are wrapped in place by the catalog.

// FaultOp names an injectable storage operation.
type FaultOp string

// The injectable operations. SCAN and IXSEARCH faults surface as
// deferred iterator errors (see IterErr); the mutation faults surface
// directly from the wrapped call.
const (
	FaultScan     FaultOp = "SCAN"     // Nth row read through a relation scan
	FaultInsert   FaultOp = "INSERT"   // Nth record insert
	FaultDelete   FaultOp = "DELETE"   // Nth record delete
	FaultUpdate   FaultOp = "UPDATE"   // Nth record update
	FaultIxInsert FaultOp = "IXINSERT" // Nth index-entry insert
	FaultIxDelete FaultOp = "IXDELETE" // Nth index-entry delete
	FaultIxSearch FaultOp = "IXSEARCH" // Nth entry read through an index search

	// Durable-storage fault points, checked by the disk store (see
	// internal/storage/disk). These are the crash-injection boundaries:
	// a Fault with Crash set at one of them simulates a process kill at
	// that exact point in the logging protocol.
	FaultWALAppend FaultOp = "WALAPPEND" // Nth WAL record append
	FaultWALSync   FaultOp = "WALSYNC"   // Nth WAL fsync
	FaultPageWrite FaultOp = "PAGEWRITE" // Nth data-page write-back
)

// AllFaultOps lists every injectable operation on the in-memory path,
// for schedule generators.
var AllFaultOps = []FaultOp{
	FaultScan, FaultInsert, FaultDelete, FaultUpdate,
	FaultIxInsert, FaultIxDelete, FaultIxSearch,
}

// CrashFaultOps lists the durable-storage crash boundaries.
var CrashFaultOps = []FaultOp{FaultWALAppend, FaultWALSync, FaultPageWrite}

// Fault is one injected failure: the (After+1)th matching operation
// sleeps Latency (interruptibly) and then, if Err is non-empty, fails
// with a *FaultError. One-shot unless Repeat is set.
type Fault struct {
	// Table restricts the fault to one table (case-insensitive); empty
	// matches every table.
	Table string
	// Op is the operation to fail.
	Op FaultOp
	// After skips that many matching operations first (0 = fail the
	// first one).
	After int64
	// Err is the injected error text; empty makes a latency-only fault.
	Err string
	// Latency is slept before failing (or instead of failing, when Err
	// is empty). The sleep aborts early when the injector's interrupt
	// channel fires, returning context.Canceled.
	Latency time.Duration
	// Repeat keeps the fault armed after its first firing.
	Repeat bool
	// Crash turns the firing into a simulated process kill: check
	// returns a *CrashError, which the disk store converts into a
	// panic after poisoning itself. Meaningful only on the durable
	// fault points (WALAPPEND/WALSYNC/PAGEWRITE).
	Crash bool
	// Torn asks the disk store to durably flush HALF of the in-flight
	// page before crashing — the torn-page case. Meaningful only with
	// Crash on PAGEWRITE.
	Torn bool

	seen  int64
	fired bool
}

// FaultError is the typed error produced by an injected fault.
type FaultError struct {
	Table string
	Op    FaultOp
	// N is the 1-based ordinal of the operation that failed.
	N   int64
	Msg string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("storage: injected fault: %s #%d on %s: %s", e.Op, e.N, e.Table, e.Msg)
}

// CrashError is the typed error produced by a crash-point fault. The
// disk store panics with it after marking itself crashed; the engine's
// panic barrier converts it into a QueryError, and the torture harness
// then simulates the machine dying (dropping unsynced writes) and
// reopens the directory.
type CrashError struct {
	Table string
	Op    FaultOp
	// N is the 1-based ordinal of the operation that crashed.
	N    int64
	Torn bool
}

func (e *CrashError) Error() string {
	kind := "crash"
	if e.Torn {
		kind = "torn-page crash"
	}
	return fmt.Sprintf("storage: injected %s: %s #%d on %s", kind, e.Op, e.N, e.Table)
}

// CountKey identifies one per-table operation counter.
type CountKey struct {
	Table string
	Op    FaultOp
}

// FaultInjector injects deterministic faults into wrapped relations and
// attachments, counts every operation (so tests can enumerate mutation
// indexes), and tracks open iterators (so tests can prove none leak).
type FaultInjector struct {
	mu        sync.Mutex
	faults    []*Fault
	counts    map[CountKey]int64
	interrupt <-chan struct{}
	openIters int64
	fired     int64
}

// NewFaultInjector returns an empty injector.
func NewFaultInjector() *FaultInjector {
	return &FaultInjector{counts: map[CountKey]int64{}}
}

// Add arms faults.
func (fi *FaultInjector) Add(faults ...*Fault) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for _, f := range faults {
		f.Table = ident.Upper(f.Table)
		f.seen, f.fired = 0, false
		fi.faults = append(fi.faults, f)
	}
}

// ClearFaults disarms every fault but keeps counters and wrapping.
func (fi *FaultInjector) ClearFaults() {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults = nil
}

// Counts snapshots the per-(table, op) operation counters.
func (fi *FaultInjector) Counts() map[CountKey]int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	out := make(map[CountKey]int64, len(fi.counts))
	for k, v := range fi.counts {
		out[k] = v
	}
	return out
}

// Fired reports how many injected faults have fired (latency-only
// firings included) since the injector was created.
func (fi *FaultInjector) Fired() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.fired
}

// OpenIterators reports how many wrapped iterators are currently open;
// zero after a statement proves no operator leaked one.
func (fi *FaultInjector) OpenIterators() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.openIters
}

// SetInterrupt installs the channel that aborts injected latency
// sleeps; execution wires the statement context's Done channel here.
// The injector is shared by all statements of a DB, so concurrent
// statements share one interrupt.
func (fi *FaultInjector) SetInterrupt(ch <-chan struct{}) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.interrupt = ch
}

// CheckOp counts one operation and fires the first matching armed
// fault. It is the fault point external storage implementations (the
// disk store) call at their own boundaries; the built-in decorators
// funnel through it too. A nil injector is a no-op.
func (fi *FaultInjector) CheckOp(table string, op FaultOp) error {
	if fi == nil {
		return nil
	}
	return fi.check(table, op)
}

// check counts one operation and fires the first matching armed fault.
func (fi *FaultInjector) check(table string, op FaultOp) error {
	fi.mu.Lock()
	key := CountKey{Table: table, Op: op}
	fi.counts[key]++
	n := fi.counts[key]
	var hit *Fault
	for _, f := range fi.faults {
		if f.Op != op || (f.Table != "" && f.Table != table) {
			continue
		}
		if f.fired && !f.Repeat {
			continue
		}
		f.seen++
		if f.seen > f.After {
			f.fired = true
			hit = f
			break
		}
	}
	var latency time.Duration
	var errText string
	if hit != nil {
		fi.fired++
		latency, errText = hit.Latency, hit.Err
	}
	interrupt := fi.interrupt
	fi.mu.Unlock()
	if hit == nil {
		return nil
	}
	if latency > 0 {
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-interrupt:
			t.Stop()
			return context.Canceled
		}
	}
	if hit.Crash {
		return &CrashError{Table: table, Op: op, N: n, Torn: hit.Torn}
	}
	if errText == "" {
		return nil
	}
	return &FaultError{Table: table, Op: op, N: n, Msg: errText}
}

func (fi *FaultInjector) iterOpened() {
	fi.mu.Lock()
	fi.openIters++
	fi.mu.Unlock()
}

func (fi *FaultInjector) iterClosed() {
	fi.mu.Lock()
	fi.openIters--
	fi.mu.Unlock()
}

// RandomSchedule derives a deterministic fault schedule from a seed:
// nFaults one-shot error faults over the given ops, each firing within
// the first maxAfter matching operations. Fuzzing feeds random seeds.
func RandomSchedule(seed int64, nFaults, maxAfter int) []*Fault {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Fault, 0, nFaults)
	for i := 0; i < nFaults; i++ {
		out = append(out, &Fault{
			Op:    AllFaultOps[rng.Intn(len(AllFaultOps))],
			After: int64(rng.Intn(maxAfter)),
			Err:   fmt.Sprintf("random fault %d (seed %d)", i, seed),
		})
	}
	return out
}

// ---------------------------------------------------------------------
// Deferred iterator errors

// IterErr reports the deferred error of an iterator, if it carries one.
// RowIterator and EntryIterator cannot return errors from Next (their
// built-in implementations never fail), so fallible wrappers expose an
// Err method instead; consumers must call IterErr when Next reports
// exhaustion.
func IterErr(it any) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// unwrap peels every decoration off v: each Unwrap() T it offers.
func unwrap[T any](v T) T {
	for {
		w, ok := any(v).(interface{ Unwrap() T })
		if !ok {
			return v
		}
		v = w.Unwrap()
	}
}

// UnwrapRelation peels fault decoration off a relation, returning the
// raw store (itself when undecorated). Compensating actions run against
// the raw store: rollback must not be failed by the very injector that
// aborted the statement.
func UnwrapRelation(rel Relation) Relation { return unwrap(rel) }

// UnwrapAttachment peels fault decoration off an attachment.
func UnwrapAttachment(at Attachment) Attachment { return unwrap(at) }

// ---------------------------------------------------------------------
// Storage manager decoration

type faultManager struct {
	inner StorageManager
	fi    *FaultInjector
}

// WrapManager decorates a storage manager: same name, but every
// relation it creates is fault-wrapped. Registering the result replaces
// the original in the registry — the decorator flows through the same
// extension path a DBC manager would.
func (fi *FaultInjector) WrapManager(m StorageManager) StorageManager {
	if w, ok := m.(*faultManager); ok && w.fi == fi {
		return m
	}
	return &faultManager{inner: m, fi: fi}
}

func (m *faultManager) Name() string { return m.inner.Name() }

func (m *faultManager) Unwrap() StorageManager { return m.inner }

func (m *faultManager) Create(tableName string, numCols int, stats *IOStats) (Relation, error) {
	rel, err := m.inner.Create(tableName, numCols, stats)
	if err != nil {
		return nil, err
	}
	return m.fi.WrapRelation(tableName, rel), nil
}

// UnwrapManager peels fault decoration off a storage manager.
func UnwrapManager(m StorageManager) StorageManager { return unwrap(m) }

// ---------------------------------------------------------------------
// Access method decoration

type faultMethod struct {
	inner AccessMethod
	fi    *FaultInjector
}

// WrapMethod decorates an access method: every attachment it creates is
// fault-wrapped. The owner table is unknown at New time; the catalog
// names the attachment after creation via SetOwner.
func (fi *FaultInjector) WrapMethod(m AccessMethod) AccessMethod {
	if w, ok := m.(*faultMethod); ok && w.fi == fi {
		return m
	}
	return &faultMethod{inner: m, fi: fi}
}

func (m *faultMethod) Name() string           { return m.inner.Name() }
func (m *faultMethod) Caps() AccessMethodCaps { return m.inner.Caps() }
func (m *faultMethod) Unwrap() AccessMethod   { return m.inner }

func (m *faultMethod) New(keyTypes []datum.TypeID, unique bool, stats *IOStats) (Attachment, error) {
	at, err := m.inner.New(keyTypes, unique, stats)
	if err != nil {
		return nil, err
	}
	return m.fi.WrapAttachment("", at), nil
}

// UnwrapMethod peels fault decoration off an access method.
func UnwrapMethod(m AccessMethod) AccessMethod { return unwrap(m) }

// ---------------------------------------------------------------------
// Relation decoration

// FaultRelation is a Relation decorated with fault injection.
type FaultRelation struct {
	inner Relation
	table string
	fi    *FaultInjector
}

// WrapRelation decorates a relation; table names the counter bucket.
func (fi *FaultInjector) WrapRelation(table string, rel Relation) Relation {
	if w, ok := rel.(*FaultRelation); ok && w.fi == fi {
		return rel
	}
	return &FaultRelation{inner: rel, table: ident.Upper(table), fi: fi}
}

// Unwrap returns the undecorated relation.
func (r *FaultRelation) Unwrap() Relation { return r.inner }

// Insert implements Relation with an INSERT fault point.
func (r *FaultRelation) Insert(row datum.Row) (RID, error) {
	if err := r.fi.check(r.table, FaultInsert); err != nil {
		return RID{}, err
	}
	return r.inner.Insert(row)
}

// Delete implements Relation with a DELETE fault point.
func (r *FaultRelation) Delete(rid RID) error {
	if err := r.fi.check(r.table, FaultDelete); err != nil {
		return err
	}
	return r.inner.Delete(rid)
}

// Update implements Relation with an UPDATE fault point.
func (r *FaultRelation) Update(rid RID, row datum.Row) error {
	if err := r.fi.check(r.table, FaultUpdate); err != nil {
		return err
	}
	return r.inner.Update(rid, row)
}

// Fetch implements Relation (no fault point: Fetch cannot report
// errors; index-scan fetches are covered by IXSEARCH instead).
func (r *FaultRelation) Fetch(rid RID) (datum.Row, bool) { return r.inner.Fetch(rid) }

// Scan implements Relation; the iterator carries SCAN fault points and
// is tracked for leak detection.
func (r *FaultRelation) Scan() RowIterator {
	r.fi.iterOpened()
	return &faultRowIterator{inner: r.inner.Scan(), rel: r}
}

// RowCount implements Relation.
func (r *FaultRelation) RowCount() int64 { return r.inner.RowCount() }

// PageCount implements Relation.
func (r *FaultRelation) PageCount() int64 { return r.inner.PageCount() }

type faultRowIterator struct {
	inner  RowIterator
	rel    *FaultRelation
	err    error
	closed bool
}

func (it *faultRowIterator) Next() (datum.Row, RID, bool) {
	if it.err != nil {
		return nil, RID{}, false
	}
	if err := it.rel.fi.check(it.rel.table, FaultScan); err != nil {
		it.err = err
		return nil, RID{}, false
	}
	return it.inner.Next()
}

func (it *faultRowIterator) Close() {
	if !it.closed {
		it.closed = true
		it.rel.fi.iterClosed()
		it.inner.Close()
	}
}

// Err reports the injected error that terminated the scan, if any.
func (it *faultRowIterator) Err() error { return it.err }

// ---------------------------------------------------------------------
// Attachment decoration

// FaultAttachment is an Attachment decorated with fault injection.
type FaultAttachment struct {
	inner Attachment
	owner string
	fi    *FaultInjector
}

// WrapAttachment decorates an attachment; owner names the counter
// bucket (the owning table), possibly set later via SetOwner.
func (fi *FaultInjector) WrapAttachment(owner string, at Attachment) Attachment {
	if w, ok := at.(*FaultAttachment); ok && w.fi == fi {
		return at
	}
	return &FaultAttachment{inner: at, owner: ident.Upper(owner), fi: fi}
}

// Unwrap returns the undecorated attachment.
func (a *FaultAttachment) Unwrap() Attachment { return a.inner }

// Owner reports the counter bucket this attachment charges.
func (a *FaultAttachment) Owner() string { return a.owner }

// SetOwner names the counter bucket; the catalog calls this after
// CREATE INDEX, when the owning table is known.
func (a *FaultAttachment) SetOwner(owner string) { a.owner = ident.Upper(owner) }

// Insert implements Attachment with an IXINSERT fault point.
func (a *FaultAttachment) Insert(key datum.Row, rid RID) error {
	if err := a.fi.check(a.owner, FaultIxInsert); err != nil {
		return err
	}
	return a.inner.Insert(key, rid)
}

// Delete implements Attachment with an IXDELETE fault point.
func (a *FaultAttachment) Delete(key datum.Row, rid RID) error {
	if err := a.fi.check(a.owner, FaultIxDelete); err != nil {
		return err
	}
	return a.inner.Delete(key, rid)
}

// Search implements Attachment; the iterator carries IXSEARCH fault
// points and is tracked for leak detection.
func (a *FaultAttachment) Search(lo, hi Bound) EntryIterator {
	a.fi.iterOpened()
	return &faultEntryIterator{inner: a.inner.Search(lo, hi), at: a}
}

// Len implements Attachment.
func (a *FaultAttachment) Len() int64 { return a.inner.Len() }

type faultEntryIterator struct {
	inner  EntryIterator
	at     *FaultAttachment
	err    error
	closed bool
}

func (it *faultEntryIterator) Next() (Entry, bool) {
	if it.err != nil {
		return Entry{}, false
	}
	if err := it.at.fi.check(it.at.owner, FaultIxSearch); err != nil {
		it.err = err
		return Entry{}, false
	}
	return it.inner.Next()
}

func (it *faultEntryIterator) Close() {
	if !it.closed {
		it.closed = true
		it.at.fi.iterClosed()
		it.inner.Close()
	}
}

// Err reports the injected error that terminated the search, if any.
func (it *faultEntryIterator) Err() error { return it.err }
