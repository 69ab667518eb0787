// Row-version state: the side version map kept per table, and the
// visibility walk.
//
// Versioning is in-place with prior-image chains, InnoDB-style: the
// relation always stores a row's newest image, and a RowVersion entry
// in the table's side map carries who wrote that image, who (if
// anyone) deleted the row, and a chain of prior images for readers
// whose snapshots predate the newest write. A row with no entry at all
// is frozen — written by a transaction that committed at or below
// every active snapshot — and is visible to everyone without any map
// lookup. Keeping frozen rows out of the map is what makes the
// fast path fast: a scan of a table with an empty map (count == 0)
// is exactly as cheap as the pre-MVCC scan.
//
// Soundness of the count fast path. Writers increment count before the
// physical insert/update (both inside the map's write lock), and GC
// decrements it only when an entry is frozen or reaped — which the
// horizon rule permits only once the version is visible to (or dead
// for) every active snapshot. A reader that observed a row through the
// relation's own lock therefore sees count > 0 whenever the row could
// carry a non-frozen version, because the writer's increment
// happens-before the physical write the reader observed.
package txn

import (
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/storage"
)

// PrevImage is one prior image in a version chain. Immutable after
// publication: it is only created for images whose writer has already
// committed (or was frozen), so its stamp never changes.
type PrevImage struct {
	Row     datum.Row
	XminCTS int64 // commit timestamp of the writer; 0 = frozen
	Prev    *PrevImage
}

// StaleKey is an index entry made obsolete by a key-changing update:
// the entry stays linked so older snapshots can still reach the row by
// its old key, and GC unlinks it when the update freezes. The index is
// named, not referenced: the index set is resolved against the current
// catalog generation at unlink time (the index may have been dropped).
type StaleKey struct {
	Index string
	Key   datum.Row
}

// RowVersion is the version state of one physically-stored row.
// Fields are atomics because commit stamping and visibility checks
// race benignly: a reader either sees the pre-stamp zero (and treats
// the version as uncommitted — correct, its snapshot predates the
// commit) or the stamped timestamp.
type RowVersion struct {
	xminTxn atomic.Int64 // writer of the newest image; 0 = frozen image
	xminCTS atomic.Int64 // writer's commit TS; 0 = uncommitted
	xmaxTxn atomic.Int64 // deleter; 0 = not deleted
	xmaxCTS atomic.Int64 // deleter's commit TS; 0 = uncommitted
	prev    atomic.Pointer[PrevImage]

	// stale accumulates old-key index entries of this row, unlinked at
	// freeze/reap. Guarded by the owning TableVersions write lock.
	stale []StaleKey
}

// NewVersion returns an entry for a row whose newest image was written
// by writer (frozen when writer == 0).
func NewVersion(writer int64) *RowVersion {
	v := &RowVersion{}
	v.xminTxn.Store(writer)
	return v
}

// Xmin reports the newest image's writer and commit timestamp.
func (v *RowVersion) Xmin() (txnID, cts int64) { return v.xminTxn.Load(), v.xminCTS.Load() }

// Xmax reports the deleter and its commit timestamp.
func (v *RowVersion) Xmax() (txnID, cts int64) { return v.xmaxTxn.Load(), v.xmaxCTS.Load() }

// SetXmin records the newest image's writer (rollback and version
// maintenance; the caller holds the table's version write lock).
func (v *RowVersion) SetXmin(txnID, cts int64) {
	v.xminTxn.Store(txnID)
	v.xminCTS.Store(cts)
}

// SetXmax records (or clears, with zeros) the deleter.
func (v *RowVersion) SetXmax(txnID, cts int64) {
	v.xmaxTxn.Store(txnID)
	v.xmaxCTS.Store(cts)
}

// Prev returns the prior-image chain head.
func (v *RowVersion) Prev() *PrevImage { return v.prev.Load() }

// PushPrev chains a prior image ahead of the existing chain.
func (v *RowVersion) PushPrev(p *PrevImage) {
	p.Prev = v.prev.Load()
	v.prev.Store(p)
}

// PopPrev unchains and returns the newest prior image.
func (v *RowVersion) PopPrev() *PrevImage {
	p := v.prev.Load()
	if p != nil {
		v.prev.Store(p.Prev)
	}
	return p
}

// AddStale records an obsolete index entry for GC (caller holds the
// table's version write lock).
func (v *RowVersion) AddStale(index string, key datum.Row) {
	v.stale = append(v.stale, StaleKey{Index: index, Key: key})
}

// TakeStale removes and returns the obsolete-entry list (caller holds
// the table's version write lock).
func (v *RowVersion) TakeStale() []StaleKey {
	s := v.stale
	v.stale = nil
	return s
}

// DropStale removes recorded stale keys for one index entry (rollback
// of a key-changing update; caller holds the version write lock).
func (v *RowVersion) DropStale(index string, key datum.Row) {
	for i := len(v.stale) - 1; i >= 0; i-- {
		s := v.stale[i]
		if s.Index == index && storage.CompareKeys(s.Key, key) == 0 {
			v.stale = append(v.stale[:i], v.stale[i+1:]...)
			return
		}
	}
}

// stamp writes the commit timestamp into whichever side(s) the
// committing transaction owns. Called under the manager's commitMu.
func (v *RowVersion) stamp(txnID, cts int64) {
	if v.xminTxn.Load() == txnID && v.xminCTS.Load() == 0 {
		v.xminCTS.Store(cts)
	}
	if v.xmaxTxn.Load() == txnID && v.xmaxCTS.Load() == 0 {
		v.xmaxCTS.Store(cts)
	}
}

// visibleStamp reports whether an image stamped (writer, cts) is
// visible to snap.
func visibleStamp(writer, cts int64, snap Snapshot) bool {
	if writer == 0 {
		return true // frozen
	}
	if writer == snap.Own {
		return true // own write
	}
	return cts != 0 && cts <= snap.TS
}

// Visible resolves which image of the row, whose newest physical image
// is cur, snap sees: cur itself, a prior image from the chain, or
// nothing (row not yet born, or already dead, for this snapshot). A nil
// v is a row with no entry: frozen, so cur is visible to everyone.
func (v *RowVersion) Visible(snap Snapshot, cur datum.Row) (datum.Row, bool) {
	if v == nil {
		return cur, true
	}
	xt, xc := v.Xmin()
	if visibleStamp(xt, xc, snap) {
		// Newest image visible; the row is gone only if its deletion is
		// also visible.
		dt, dc := v.Xmax()
		if dt != 0 && visibleStamp(dt, dc, snap) {
			return nil, false
		}
		return cur, true
	}
	// Walk back to the newest prior image the snapshot can see. A
	// deletion can only be newer than the newest image, so any visible
	// prior image is alive for this snapshot.
	for p := v.Prev(); p != nil; p = p.Prev {
		if p.XminCTS != 0 && p.XminCTS <= snap.TS || p.XminCTS == 0 {
			return p.Row, true
		}
	}
	return nil, false
}

// TableVersions is one table's side version map plus its DML/DDL
// coordination locks. It is shared by every catalog generation's clone
// of the table, so versions survive copy-on-write DDL.
type TableVersions struct {
	count atomic.Int64

	mu sync.RWMutex
	m  map[storage.RID]*RowVersion

	// ddlMu coordinates row writes with index backfill: every DML
	// mutation holds it shared for the mutation's duration, and
	// CREATE INDEX holds it exclusively across its scan-and-backfill so
	// the new attachment misses no concurrent write. Readers never
	// touch it.
	ddlMu sync.RWMutex
}

// NewTableVersions returns an empty version map.
func NewTableVersions() *TableVersions {
	return &TableVersions{m: map[storage.RID]*RowVersion{}}
}

// Count reports the number of unfrozen row versions. A zero count
// under the read lock (ReadFrozen; or the happens-before argument at the
// top of this file, for lock-free readers) means every physical row is
// frozen.
func (tv *TableVersions) Count() int64 { return tv.count.Load() }

// rlock takes the version map shared for ReadNext and Fetch; a nil tv
// (system/virtual tables) has nothing to lock.
func (tv *TableVersions) rlock() {
	if tv != nil {
		tv.mu.RLock()
	}
}

func (tv *TableVersions) runlock() {
	if tv != nil {
		tv.mu.RUnlock()
	}
}

// Lookup returns the version entry for rid, nil when the row is
// frozen. The caller accepts the entry state as of the lookup.
func (tv *TableVersions) Lookup(rid storage.RID) *RowVersion {
	if tv.count.Load() == 0 {
		return nil
	}
	tv.mu.RLock()
	v := tv.m[rid]
	tv.mu.RUnlock()
	return v
}

// LookupLocked is Lookup under a held WriteLock (or, inside this
// package, the read lock); nil for a nil tv.
func (tv *TableVersions) LookupLocked(rid storage.RID) *RowVersion {
	if tv == nil {
		return nil
	}
	return tv.m[rid]
}

// WriteLock takes the version map exclusively: version registration
// and the physical row write it covers happen inside it, keeping the
// count fast path sound.
func (tv *TableVersions) WriteLock() { tv.mu.Lock() }

// WriteUnlock releases WriteLock.
func (tv *TableVersions) WriteUnlock() { tv.mu.Unlock() }

// AddCount adjusts the unfrozen-version count. Writers add before the
// physical write; GC subtracts after freezing or reaping.
func (tv *TableVersions) AddCount(d int64) { tv.count.Add(d) }

// PutLocked registers a version entry (caller holds WriteLock and has
// already accounted the count).
func (tv *TableVersions) PutLocked(rid storage.RID, v *RowVersion) { tv.m[rid] = v }

// RemoveLocked unregisters a version entry (caller holds WriteLock and
// adjusts the count itself).
func (tv *TableVersions) RemoveLocked(rid storage.RID) { delete(tv.m, rid) }

// BeginWrite/EndWrite bracket one DML mutation for index-backfill
// coordination (shared side of ddlMu).
func (tv *TableVersions) BeginWrite() { tv.ddlMu.RLock() }

// EndWrite releases BeginWrite.
func (tv *TableVersions) EndWrite() { tv.ddlMu.RUnlock() }

// QuiesceWrites blocks until no DML mutation is in flight and holds
// new ones out: the CREATE INDEX backfill bracket.
func (tv *TableVersions) QuiesceWrites() { tv.ddlMu.Lock() }

// ResumeWrites releases QuiesceWrites.
func (tv *TableVersions) ResumeWrites() { tv.ddlMu.Unlock() }

// ReadNext advances it one record and resolves the record against snap:
// row is the image snap sees, live whether it sees one at all, ok false
// at exhaustion (the caller then consults storage.IterErr). Reading,
// looking up and resolving are one step under the read lock, because a
// rollback rewrites all three under the write lock. It deletes an
// inserted record and drops its version entry: a scan that read the
// record before and looked it up after would find it unversioned —
// indistinguishable from frozen — and surface an aborted row. And it
// restores an updated record and resets the entry's writer in place: a
// scan that read the new image and its entry before, and resolved after,
// would find the entry naming the old image's committed (or frozen)
// writer and surface the aborted image under that stamp.
func (tv *TableVersions) ReadNext(it storage.RowIterator, snap Snapshot) (row datum.Row, rid storage.RID, live, ok bool) {
	tv.rlock()
	//lint:ignore error-discard the version layer passes exhaustion up as ok=false; the caller owns the iterator and consults IterErr
	row, rid, ok = it.Next()
	if ok {
		row, live = tv.LookupLocked(rid).Visible(snap, row)
	}
	tv.runlock()
	return row, rid, live, ok
}

// ReadFrozen appends up to max records from it to b under one hold of
// the read lock, provided every physical row is frozen — no writer can
// then register an unfrozen version between the count check and the
// records leaving the iterator, so none of them needs resolving. It
// reports frozen=false, having read nothing, when the table has
// unfrozen versions; the caller falls back to ReadNext. n == 0 with
// frozen means exhaustion. A ColScanner (the in-memory heap behind HEAP
// and FIXED, or DISK) decomposes pages straight into b's vectors; any
// other iterator (fault-wrapped,
// VIRTUAL, DBC) is drained record by record. Either way the iterator
// keeps one position, so a cursor that falls back to ReadNext mid-scan
// resumes at the next record.
func (tv *TableVersions) ReadFrozen(it storage.RowIterator, b *datum.ColBatch, max int) (n int, frozen bool) {
	if tv != nil {
		tv.mu.RLock()
		defer tv.mu.RUnlock()
		if tv.count.Load() != 0 {
			return 0, false
		}
	}
	if cs, ok := it.(storage.ColScanner); ok {
		return cs.NextCols(b, max), true
	}
	for n < max {
		//lint:ignore error-discard as ReadNext: the caller consults IterErr when n == 0
		row, _, ok := it.Next()
		if !ok {
			break
		}
		b.AppendRow(row)
		n++
	}
	return n, true
}

// Fetch reads the record at rid into dst, through storage.RowFiller,
// and resolves it against snap, as one step for the reason ReadNext
// gives. The row returned is dst, a prior image, or, from a relation
// without the RowFiller capability, a fresh row from its Fetch. live is
// false when the record is gone or snap sees no image of it; versioned
// reports that the row carried a version entry, i.e. may be in flux: an
// index reader must then re-check the returned image against the key
// it followed.
func (tv *TableVersions) Fetch(rel storage.Relation, rid storage.RID, snap Snapshot, dst datum.Row) (row datum.Row, versioned, live bool) {
	tv.rlock()
	defer tv.runlock()
	var ok bool
	if f, filler := rel.(storage.RowFiller); filler {
		row, ok = dst, f.FetchInto(rid, dst)
	} else {
		row, ok = rel.Fetch(rid)
	}
	if !ok {
		return nil, false, false
	}
	v := tv.LookupLocked(rid)
	row, live = v.Visible(snap, row)
	return row, v != nil, live
}

// Resolve returns the image of the row at rid visible to snap, given
// the newest physical image cur. A nil tv (system/virtual tables)
// means no versioning: cur is visible. The caller accepts the version
// state as of the lookup, which may be later than cur's (see ReadNext).
func Resolve(tv *TableVersions, rid storage.RID, cur datum.Row, snap Snapshot) (datum.Row, bool) {
	if tv == nil {
		return cur, true
	}
	return tv.Lookup(rid).Visible(snap, cur)
}
