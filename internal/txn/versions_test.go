package txn

import (
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
)

func intRow(v int64) datum.Row { return datum.Row{datum.NewInt(v)} }

// version builds a RowVersion from (writer, writer cts), (deleter,
// deleter cts) and prior images given newest first as (value, cts).
func version(xt, xc, dt, dc int64, prior ...[2]int64) *RowVersion {
	v := NewVersion(xt)
	v.SetXmin(xt, xc)
	v.SetXmax(dt, dc)
	for i := len(prior) - 1; i >= 0; i-- {
		v.PushPrev(&PrevImage{Row: intRow(prior[i][0]), XminCTS: prior[i][1]})
	}
	return v
}

// TestVisible is the visibility table: which image of a row a snapshot
// at TS 10 owned by transaction 5 sees. cur (value 100) is the newest
// physical image; prior images carry their own values.
func TestVisible(t *testing.T) {
	snap := Snapshot{TS: 10, Own: 5}
	const dead = -1
	cases := []struct {
		name string
		v    *RowVersion
		want int64 // value of the visible image, or dead
	}{
		{"frozen image", version(0, 0, 0, 0), 100},
		{"own uncommitted write", version(5, 0, 0, 0), 100},
		{"committed before the snapshot", version(7, 9, 0, 0), 100},
		{"committed at the snapshot", version(7, 10, 0, 0), 100},
		{"committed after the snapshot", version(7, 11, 0, 0), dead},
		{"uncommitted, another transaction's", version(7, 0, 0, 0), dead},

		{"deleted, deleter committed before the snapshot", version(0, 0, 8, 9), dead},
		{"deleted by the snapshot's own transaction", version(0, 0, 5, 0), dead},
		{"deleted, deleter committed after the snapshot", version(0, 0, 8, 11), 100},
		{"deleted, deleter uncommitted", version(0, 0, 8, 0), 100},
		{"own write then own delete", version(5, 0, 5, 0), dead},
		{"deletion of an image the snapshot cannot see", version(7, 11, 8, 12, [2]int64{50, 3}), 50},

		{"newer write invisible: frozen prior image", version(7, 11, 0, 0, [2]int64{50, 0}), 50},
		{"newer write invisible: prior committed before", version(7, 0, 0, 0, [2]int64{50, 9}), 50},
		{"chain walk skips a prior image committed after", version(7, 13, 0, 0, [2]int64{60, 12}, [2]int64{50, 4}), 50},
		{"chain walk stops at the newest visible prior", version(7, 13, 0, 0, [2]int64{60, 8}, [2]int64{50, 4}), 60},
		{"every prior image committed after", version(7, 13, 0, 0, [2]int64{60, 12}, [2]int64{50, 11}), dead},
		{"own write hides the chain", version(5, 0, 0, 0, [2]int64{50, 4}), 100},
	}
	for _, c := range cases {
		row, live := c.v.Visible(snap, intRow(100))
		switch {
		case c.want == dead && live:
			t.Errorf("%s: sees %v, want the row invisible", c.name, row)
		case c.want != dead && !live:
			t.Errorf("%s: row invisible, want image %d", c.name, c.want)
		case c.want != dead && row[0].Int() != c.want:
			t.Errorf("%s: sees image %d, want %d", c.name, row[0].Int(), c.want)
		}
	}
}

// TestResolveUnversioned: a row with no entry is frozen and visible to
// every snapshot, including the zero one; a nil map versions nothing.
func TestResolveUnversioned(t *testing.T) {
	tv := NewTableVersions()
	rid := storage.RID{Page: 0, Slot: 3}
	for _, tvs := range []*TableVersions{nil, tv} {
		if row, live := Resolve(tvs, rid, intRow(1), Snapshot{}); !live || row[0].Int() != 1 {
			t.Fatalf("unversioned row resolved to (%v, %v)", row, live)
		}
	}
	tv.WriteLock()
	tv.AddCount(1)
	tv.PutLocked(rid, NewVersion(7))
	tv.WriteUnlock()
	if _, live := Resolve(tv, rid, intRow(1), Snapshot{TS: 10}); live {
		t.Fatal("another transaction's uncommitted row resolved visible")
	}
	if _, live := Resolve(tv, rid, intRow(1), Snapshot{TS: 10, Own: 7}); !live {
		t.Fatal("own uncommitted row resolved invisible")
	}
}

// testTable is a heap relation with n frozen rows 0..n-1 and its map.
func testTable(t *testing.T, n int) (storage.Relation, *TableVersions) {
	t.Helper()
	rel, err := storage.NewHeapManager(4).Create("T", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(intRow(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return rel, NewTableVersions()
}

// insertUncommitted and rollback follow the writer protocol the count
// fast path relies on: the version entry and its count are registered,
// and dropped, inside the write lock that covers the physical write.
func insertUncommitted(t *testing.T, rel storage.Relation, tv *TableVersions, writer, val int64) storage.RID {
	tv.WriteLock()
	defer tv.WriteUnlock()
	tv.AddCount(1)
	rid, err := rel.Insert(intRow(val))
	if err != nil {
		t.Error(err)
	}
	tv.PutLocked(rid, NewVersion(writer))
	return rid
}

func rollback(t *testing.T, rel storage.Relation, tv *TableVersions, rid storage.RID) {
	tv.WriteLock()
	defer tv.WriteUnlock()
	if err := rel.Delete(rid); err != nil {
		t.Error(err)
	}
	tv.RemoveLocked(rid)
	tv.AddCount(-1)
}

// updateUncommitted and rollbackUpdate follow the writer protocol for an
// in-place update: the old image is chained and the entry re-stamped
// with the writer before the physical write, and rollback restores all
// of it — dropping the entry again if the update created it — inside one
// hold of the write lock.
type undoUpdate struct {
	rid             storage.RID
	old             datum.Row
	created         bool
	oldTxn, oldXmin int64
}

func updateUncommitted(t *testing.T, rel storage.Relation, tv *TableVersions, writer int64, rid storage.RID, val int64) undoUpdate {
	tv.WriteLock()
	defer tv.WriteUnlock()
	old, ok := rel.Fetch(rid)
	if !ok {
		t.Errorf("no record %v", rid)
	}
	u := undoUpdate{rid: rid, old: old}
	v := tv.LookupLocked(rid)
	if v == nil {
		v = NewVersion(writer)
		v.PushPrev(&PrevImage{Row: old})
		tv.AddCount(1)
		tv.PutLocked(rid, v)
		u.created = true
	} else {
		u.oldTxn, u.oldXmin = v.Xmin()
		v.PushPrev(&PrevImage{Row: old, XminCTS: u.oldXmin})
		v.SetXmin(writer, 0)
	}
	if err := rel.Update(rid, intRow(val)); err != nil {
		t.Error(err)
	}
	return u
}

func rollbackUpdate(t *testing.T, rel storage.Relation, tv *TableVersions, u undoUpdate) {
	tv.WriteLock()
	defer tv.WriteUnlock()
	if err := rel.Update(u.rid, u.old); err != nil {
		t.Error(err)
	}
	v := tv.LookupLocked(u.rid)
	v.PopPrev()
	v.SetXmin(u.oldTxn, u.oldXmin)
	if u.created {
		tv.RemoveLocked(u.rid)
		tv.AddCount(-1)
	}
}

// lockProbe wraps an iterator (and a relation's Fetch) to observe, at
// the moment a record is read, whether the version map's write lock
// could be taken — i.e. whether a rollback could slip in between this
// read and the resolve that follows it.
type lockProbe struct {
	storage.RowIterator
	storage.Relation
	tv       *TableVersions
	unlocked int
}

func (p *lockProbe) probe() {
	if p.tv.mu.TryLock() {
		p.tv.mu.Unlock()
		p.unlocked++
	}
}

func (p *lockProbe) Next() (datum.Row, storage.RID, bool) {
	p.probe()
	return p.RowIterator.Next()
}

func (p *lockProbe) Fetch(rid storage.RID) (datum.Row, bool) {
	p.probe()
	return p.Relation.Fetch(rid)
}

// TestReadsHoldTheVersionLock pins the PR-12 phantom at its cause: all
// three read primitives read the record with the version read lock
// held, so the rollback that deletes a record and drops its entry
// cannot run between a read and its resolve.
func TestReadsHoldTheVersionLock(t *testing.T) {
	rel, tv := testTable(t, 6)
	aborted := insertUncommitted(t, rel, tv, 7, 99)
	snap := Snapshot{TS: 10}

	p := &lockProbe{RowIterator: rel.Scan(), Relation: rel, tv: tv}
	seen := 0
	for {
		row, rid, live, ok := tv.ReadNext(p, snap)
		if !ok {
			break
		}
		if live != (rid != aborted) {
			t.Fatalf("row %v at %v: live=%v", row, rid, live)
		}
		seen++
	}
	if seen != 7 {
		t.Fatalf("ReadNext yielded %d records, want 7", seen)
	}

	if row, versioned, live := tv.Fetch(p, aborted, snap, nil); live || !versioned {
		t.Fatalf("Fetch of an uncommitted row = (%v, versioned=%v, live=%v)", row, versioned, live)
	}
	if row, versioned, live := tv.Fetch(p, aborted, Snapshot{TS: 10, Own: 7}, nil); !live || !versioned || row[0].Int() != 99 {
		t.Fatalf("Fetch of an own write = (%v, versioned=%v, live=%v)", row, versioned, live)
	}
	if row, versioned, live := tv.Fetch(p, storage.RID{Page: 0, Slot: 2}, snap, nil); !live || versioned || row[0].Int() != 2 {
		t.Fatalf("Fetch of a frozen row = (%v, versioned=%v, live=%v)", row, versioned, live)
	}

	rollback(t, rel, tv, aborted)
	if _, _, live := tv.Fetch(p, aborted, snap, nil); live {
		t.Fatal("Fetch of a rolled-back record reports it live")
	}
	p.RowIterator = rel.Scan()
	b := datum.NewColBatch([]datum.TypeID{datum.TInt})
	if n, frozen := tv.ReadFrozen(p, b, 100); !frozen || n != 6 || b.Len() != 6 {
		t.Fatalf("ReadFrozen over a frozen table = (%d, %v), batch holds %d", n, frozen, b.Len())
	}
	if p.unlocked != 0 {
		t.Fatalf("%d record reads ran outside the version read lock", p.unlocked)
	}
}

// TestReadFrozenFastPath: with any unfrozen version registered the
// chunk read must refuse and consume nothing — its records would skip
// resolution — and with none it drains ColScanner and plain iterators
// alike, appending after what the batch already holds.
func TestReadFrozenFastPath(t *testing.T) {
	rel, tv := testTable(t, 10)
	types := []datum.TypeID{datum.TInt}

	rid := insertUncommitted(t, rel, tv, 7, 99)
	it := rel.Scan()
	b := datum.NewColBatch(types)
	if n, frozen := tv.ReadFrozen(it, b, 4); frozen || n != 0 || b.Len() != 0 {
		t.Fatalf("ReadFrozen with Count=%d returned (%d, %v), batch holds %d", tv.Count(), n, frozen, b.Len())
	}
	if row, _, _, ok := tv.ReadNext(it, Snapshot{}); !ok || row[0].Int() != 0 {
		t.Fatalf("refused chunk read consumed records: next is %v", row)
	}
	rollback(t, rel, tv, rid)
	if tv.Count() != 0 {
		t.Fatalf("Count = %d after rollback", tv.Count())
	}

	for name, wrap := range map[string]func(storage.RowIterator) storage.RowIterator{
		"ColScanner": func(it storage.RowIterator) storage.RowIterator { return it },
		"Next only":  func(it storage.RowIterator) storage.RowIterator { return struct{ storage.RowIterator }{it} },
	} {
		for _, tvs := range []*TableVersions{tv, nil} {
			it, b, total := wrap(rel.Scan()), datum.NewColBatch(types), 0
			for {
				n, frozen := tvs.ReadFrozen(it, b, 4)
				if !frozen || n > 4 {
					t.Fatalf("%s: ReadFrozen = (%d, %v)", name, n, frozen)
				}
				if n == 0 {
					break
				}
				total += n
			}
			if total != 10 || b.Len() != 10 {
				t.Fatalf("%s: read %d records, batch holds %d, want 10", name, total, b.Len())
			}
			for i := 0; i < 10; i++ {
				if got := b.Vecs[0].ValueAt(i).Int(); got != int64(i) {
					t.Fatalf("%s: batch row %d = %d", name, i, got)
				}
			}
		}
	}
}

// TestNoPhantomUnderRollback is the PR-12 phantom end to end, for the
// race detector: one goroutine inserts uncommitted rows and rolls them
// back while readers scan record-wise and chunk-wise. No reader may
// ever surface an aborted row — through a dropped version entry that
// makes it look frozen, or through a chunk read that took the Count()==0
// fast path while a writer was registering.
func TestNoPhantomUnderRollback(t *testing.T) {
	const base, rounds = 20, 300
	rel, tv := testTable(t, base)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			rollback(t, rel, tv, insertUncommitted(t, rel, tv, 7, 1000))
		}
	}()
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	snap := Snapshot{TS: 10, Own: 5}
	wg.Add(2)
	go func() { // record-wise
		defer wg.Done()
		for running() {
			it, n := rel.Scan(), 0
			for {
				row, _, live, ok := tv.ReadNext(it, snap)
				if !ok {
					break
				}
				if live {
					if row[0].Int() >= base {
						t.Errorf("ReadNext surfaced aborted row %v", row)
						return
					}
					n++
				}
			}
			if n != base {
				t.Errorf("record scan saw %d rows, want %d", n, base)
				return
			}
		}
	}()
	go func() { // chunk-wise, falling back record-wise like the cursor
		defer wg.Done()
		b := datum.NewColBatch([]datum.TypeID{datum.TInt})
		for running() {
			it := rel.Scan()
			b.Reset()
			for {
				if n, frozen := tv.ReadFrozen(it, b, 8); frozen {
					if n == 0 {
						break
					}
					continue
				}
				row, _, live, ok := tv.ReadNext(it, snap)
				if !ok {
					break
				}
				if live {
					b.AppendRow(row)
				}
			}
			if b.Len() != base {
				t.Errorf("chunk scan saw %d rows, want %d", b.Len(), base)
				return
			}
			for i := 0; i < b.Len(); i++ {
				if v := b.Vecs[0].ValueAt(i).Int(); v >= base {
					t.Errorf("chunk scan surfaced aborted row %d", v)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestNoDirtyReadUnderUpdateRollback is the other half of the read
// protocol: an update's rollback keeps the record and rewrites its
// version entry in place, so a reader holding the aborted image and its
// entry must also have resolved them before the rollback can run —
// afterwards the entry names the old image's frozen or committed writer
// and the aborted image would pass for it. A writer updates and rolls
// back two rows, one frozen (the update creates the entry and the
// rollback drops it) and one carrying a committed entry (re-stamped in
// place), while readers scan and fetch: each must see every row, at its
// committed value.
func TestNoDirtyReadUnderUpdateRollback(t *testing.T) {
	const base, rounds, aborted = 2, 20000, 1000
	rel, tv := testTable(t, base)
	frozen, versioned := storage.RID{Page: 0, Slot: 0}, storage.RID{Page: 0, Slot: 1}
	tv.WriteLock()
	tv.AddCount(1)
	v := NewVersion(3)
	v.SetXmin(3, 4)
	tv.PutLocked(versioned, v)
	tv.WriteUnlock()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			for _, rid := range []storage.RID{frozen, versioned} {
				rollbackUpdate(t, rel, tv, updateUncommitted(t, rel, tv, 7, rid, aborted))
			}
		}
	}()
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	snap := Snapshot{TS: 10, Own: 5}
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func() { // scan
			defer wg.Done()
			for running() {
				it, n := rel.Scan(), 0
				for {
					row, rid, live, ok := tv.ReadNext(it, snap)
					if !ok {
						break
					}
					if !live || row[0].Int() >= aborted {
						t.Errorf("ReadNext at %v = (%v, live=%v) during update/rollback", rid, row, live)
						return
					}
					n++
				}
				if n != base {
					t.Errorf("scan saw %d rows, want %d", n, base)
					return
				}
			}
		}()
		go func() { // fetch by RID
			defer wg.Done()
			for running() {
				for _, rid := range []storage.RID{frozen, versioned} {
					if row, _, live := tv.Fetch(rel, rid, snap, make(datum.Row, 1)); !live || row[0].Int() >= aborted {
						t.Errorf("Fetch of %v = (%v, live=%v) during update/rollback", rid, row, live)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
