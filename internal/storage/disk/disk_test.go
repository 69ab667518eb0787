package disk

// White-box tests for the durable storage layer: slotted pages, the row
// codec, WAL framing and torn-tail scanning, buffer-pool eviction, and
// store-level crash recovery over the in-memory filesystem (MemFS
// discards every write that was not explicitly fsynced, so a Crash()
// plus reopen is a faithful kill -9).

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------
// Slotted page

func TestPageInsertFetchDeleteUpdate(t *testing.T) {
	buf := make([]byte, 512)
	p := newPage(buf)
	p.init()

	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []int
	for _, r := range recs {
		s, ok := p.insert(r)
		if !ok {
			t.Fatalf("insert %q failed", r)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		if got := p.record(s); !bytes.Equal(got, recs[i]) {
			t.Fatalf("slot %d: got %q want %q", s, got, recs[i])
		}
	}
	if n := p.liveCount(); n != 3 {
		t.Fatalf("liveCount = %d, want 3", n)
	}

	if !p.delete(slots[1]) {
		t.Fatal("delete failed")
	}
	if p.record(slots[1]) != nil {
		t.Fatal("deleted slot still has a record")
	}
	if p.delete(slots[1]) {
		t.Fatal("double delete reported success")
	}

	// In-place update (same length) and growing update.
	if err := p.update(slots[0], []byte("ALPHA")); err != nil {
		t.Fatal(err)
	}
	if err := p.update(slots[2], []byte("a-much-longer-gamma-record")); err != nil {
		t.Fatal(err)
	}
	if got := p.record(slots[2]); string(got) != "a-much-longer-gamma-record" {
		t.Fatalf("after grow: %q", got)
	}

	// Reuse of the dead slot: nextSlot must return it, insertAt must land
	// exactly there.
	if ns := p.nextSlot(); ns != slots[1] {
		t.Fatalf("nextSlot = %d, want dead slot %d", ns, slots[1])
	}
	if err := p.insertAt(slots[1], []byte("beta2")); err != nil {
		t.Fatal(err)
	}
	if got := p.record(slots[1]); string(got) != "beta2" {
		t.Fatalf("reused slot: %q", got)
	}
}

func TestPageCompactPreservesSlots(t *testing.T) {
	buf := make([]byte, 256)
	p := newPage(buf)
	p.init()
	var slots []int
	i := 0
	for {
		s, ok := p.insert([]byte(fmt.Sprintf("rec-%02d", i)))
		if !ok {
			break
		}
		slots = append(slots, s)
		i++
	}
	if len(slots) < 4 {
		t.Fatalf("page too small for the test: %d records", len(slots))
	}
	// Delete every even slot, then force a compaction by inserting a
	// record larger than the contiguous gap.
	for j := 0; j < len(slots); j += 2 {
		p.delete(slots[j])
	}
	big := make([]byte, p.insertCapacity()-slotSize)
	for k := range big {
		big[k] = 'x'
	}
	s, ok := p.insert(big)
	if !ok {
		t.Fatalf("insert after compaction failed (capacity %d)", p.insertCapacity())
	}
	if got := p.record(s); !bytes.Equal(got, big) {
		t.Fatal("compacted insert corrupted the record")
	}
	// Survivors keep their slot numbers and contents.
	for j := 1; j < len(slots); j += 2 {
		want := fmt.Sprintf("rec-%02d", j)
		if got := p.record(slots[j]); string(got) != want {
			t.Fatalf("slot %d after compact: got %q want %q", slots[j], got, want)
		}
	}
}

func TestPageChecksum(t *testing.T) {
	buf := make([]byte, 256)
	p := newPage(buf)
	p.init()
	if _, ok := p.insert([]byte("payload")); !ok {
		t.Fatal("insert failed")
	}
	p.seal()
	if !p.verify() {
		t.Fatal("sealed page fails verification")
	}
	buf[len(buf)-1] ^= 0xFF
	if p.verify() {
		t.Fatal("corrupted page passes verification")
	}
}

func TestPageCanUpdate(t *testing.T) {
	buf := make([]byte, 128)
	p := newPage(buf)
	p.init()
	s, ok := p.insert([]byte("12345678"))
	if !ok {
		t.Fatal("insert failed")
	}
	if !p.canUpdate(s, 4) {
		t.Fatal("shrink must always fit")
	}
	if p.canUpdate(s, len(buf)) {
		t.Fatal("page-sized update cannot fit")
	}
	if p.canUpdate(99, 4) {
		t.Fatal("canUpdate on a missing slot")
	}
	// canUpdate's yes must be insert-guaranteed: log-before-apply relies
	// on it.
	grow := p.insertCapacity() + len(p.record(s)) - 1
	if p.canUpdate(s, grow) {
		if err := p.update(s, make([]byte, grow)); err != nil {
			t.Fatalf("canUpdate said yes but update failed: %v", err)
		}
	}
}

// ---------------------------------------------------------------------
// Row codec

func TestCodecRoundTrip(t *testing.T) {
	rows := []datum.Row{
		{datum.NewInt(0), datum.NewInt(-1), datum.NewInt(1 << 40)},
		{datum.Null, datum.NewBool(true), datum.NewBool(false)},
		{datum.NewFloat(3.25), datum.NewString(""), datum.NewString("héllo")},
	}
	for _, row := range rows {
		rec, err := encodeRow(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRow(rec, len(row))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(row) {
			t.Fatalf("decoded %d cols, want %d", len(got), len(row))
		}
		for i := range row {
			if row[i].IsNull() {
				if !got[i].IsNull() {
					t.Fatalf("col %d: want NULL, got %v", i, got[i])
				}
				continue
			}
			if cmp, ok := datum.Compare(got[i], row[i]); !ok || cmp != 0 {
				t.Fatalf("col %d: got %v want %v", i, got[i], row[i])
			}
		}
	}
}

// TestCodecRoundTripEdgeValues is the DISK-codec leg of datum's
// representation tests: the built-in edge values come back bit for bit
// (float bits, so -0 and NaN stay what they were; string bytes).
func TestCodecRoundTripEdgeValues(t *testing.T) {
	row := datum.Row{datum.Null, datum.NewBool(true), datum.NewBool(false),
		datum.NewString(""), datum.NewString("a\x00b\x00\x00"),
		datum.NewString(strings.Repeat("0123456789abcdef", 1<<16))}
	for _, i := range []int64{0, -1, 1<<53 + 1, -1<<53 - 1, math.MinInt64, math.MaxInt64} {
		row = append(row, datum.NewInt(i))
	}
	for _, f := range []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		row = append(row, datum.NewFloat(f))
	}
	rec, err := encodeRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRow(rec, len(row))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range row {
		g := got[i]
		same := g.Type() == v.Type()
		if same {
			switch v.Type() {
			case datum.TBool:
				same = g.Bool() == v.Bool()
			case datum.TInt:
				same = g.Int() == v.Int()
			case datum.TFloat:
				same = math.Float64bits(g.Float()) == math.Float64bits(v.Float())
			case datum.TString:
				same = g.Str() == v.Str()
			}
		}
		if !same {
			t.Errorf("col %d: decoded %.40s, want %.40s", i, g, v)
		}
	}
}

func TestCodecRejectsShortRecord(t *testing.T) {
	rec, err := encodeRow(nil, datum.Row{datum.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRow(rec, 2); err == nil {
		t.Fatal("decode of a one-column record as two columns succeeded")
	}
}

// ---------------------------------------------------------------------
// WAL

func TestWalAppendScanRoundTrip(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.OpenFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWalFile(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []*walRecord{
		{kind: walInsert, stmtID: 1, table: "T", pageNo: 3, slot: 2, data: []byte("row")},
		{kind: walDelete, stmtID: 1, table: "T", pageNo: 3, slot: 2},
		{kind: walCommit, stmtID: 1},
		{kind: walDDL, stmtID: 2, data: []byte("CREATE TABLE X (a INT)")},
	}
	for _, r := range want {
		if _, err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.sync(w.nextLSN - 1); err != nil {
		t.Fatal(err)
	}

	size, err := fs.Stat("wal")
	if err != nil {
		t.Fatal(err)
	}
	got, intactEnd, lastLSN, err := walScan(f, size)
	if err != nil {
		t.Fatal(err)
	}
	if intactEnd != size {
		t.Fatalf("intactEnd = %d, want %d", intactEnd, size)
	}
	if lastLSN != uint64(len(want)) {
		t.Fatalf("lastLSN = %d, want %d", lastLSN, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.lsn != uint64(i+1) || r.kind != w.kind || r.stmtID != w.stmtID ||
			r.table != w.table || r.pageNo != w.pageNo || r.slot != w.slot ||
			!bytes.Equal(r.data, w.data) {
			t.Fatalf("record %d: got %+v want %+v", i, r, w)
		}
	}
}

func TestWalScanTruncatesTornTail(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.OpenFile("wal")
	w, err := newWalFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(&walRecord{kind: walInsert, stmtID: 1, table: "T", data: []byte("good")}); err != nil {
		t.Fatal(err)
	}
	if err := w.sync(w.nextLSN - 1); err != nil {
		t.Fatal(err)
	}
	goodEnd := w.off
	// A torn append: frame header promising more bytes than exist.
	if _, err := f.WriteAt([]byte{0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB}, goodEnd); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat("wal")
	recs, intactEnd, lastLSN, err := walScan(f, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || lastLSN != 1 {
		t.Fatalf("got %d records lastLSN=%d, want 1 record lastLSN=1", len(recs), lastLSN)
	}
	if intactEnd != goodEnd {
		t.Fatalf("intactEnd = %d, want %d", intactEnd, goodEnd)
	}

	// A corrupt frame (bad CRC) is also a tail boundary.
	if _, err := f.WriteAt([]byte{4, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9}, goodEnd); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	size, _ = fs.Stat("wal")
	recs, intactEnd, _, err = walScan(f, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || intactEnd != goodEnd {
		t.Fatalf("corrupt frame not treated as tail: %d records, intactEnd %d want %d", len(recs), intactEnd, goodEnd)
	}
}

// ---------------------------------------------------------------------
// Buffer pool

func TestPoolHitMissEvict(t *testing.T) {
	p := newPool(4) // 4 is also the enforced minimum capacity
	loads := 0
	load := func(table string, page uint32) func([]byte) error {
		return func(buf []byte) error {
			loads++
			buf[0] = byte(page)
			return nil
		}
	}
	get := func(table string, page uint32) *frame {
		fr, err := p.get(frameKey{table, page}, 64, load(table, page))
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}

	a := get("T", 0)
	p.unpin(a, false, 0)
	b := get("T", 0) // hit
	p.unpin(b, false, 0)
	if a != b {
		t.Fatal("second get of the same page missed")
	}
	for pg := uint32(1); pg < 4; pg++ {
		p.unpin(get("T", pg), false, 0)
	}
	// Fifth distinct page in a 4-frame pool: someone clean gets evicted.
	c := get("T", 4)
	p.unpin(c, false, 0)
	hits, misses, evicts, overflow := p.stats()
	if hits != 1 || misses != 5 {
		t.Fatalf("hits=%d misses=%d, want 1/5", hits, misses)
	}
	if evicts != 1 || overflow != 0 {
		t.Fatalf("evicts=%d overflow=%d, want 1/0", evicts, overflow)
	}
	if loads != 5 {
		t.Fatalf("loads = %d, want 5", loads)
	}
}

func TestPoolDirtyPagesNotEvicted(t *testing.T) {
	p := newPool(4)
	load := func(buf []byte) error { return nil }
	var first *frame
	for pg := uint32(0); pg < 4; pg++ {
		fr, err := p.get(frameKey{"T", pg}, 64, load)
		if err != nil {
			t.Fatal(err)
		}
		if pg == 0 {
			first = fr
		}
		p.unpin(fr, true, uint64(pg+5)) // dirty: no-steal pool must keep it
	}
	// Every frame dirty: the pool must overflow rather than steal.
	c, err := p.get(frameKey{"T", 9}, 64, load)
	if err != nil {
		t.Fatal(err)
	}
	p.unpin(c, false, 0)
	_, _, evicts, overflow := p.stats()
	if evicts != 0 {
		t.Fatalf("a dirty page was evicted (evicts=%d)", evicts)
	}
	if overflow != 1 {
		t.Fatalf("overflow = %d, want 1", overflow)
	}
	if len(p.dirtyFrames()) != 4 {
		t.Fatalf("dirtyFrames = %d, want 4", len(p.dirtyFrames()))
	}
	p.clean(first)
	if len(p.dirtyFrames()) != 3 {
		t.Fatal("clean() did not clear the dirty bit")
	}
}

func TestPoolLoadErrorNotCached(t *testing.T) {
	p := newPool(2)
	boom := errors.New("boom")
	if _, err := p.get(frameKey{"T", 0}, 64, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("want load error, got %v", err)
	}
	loaded := false
	fr, err := p.get(frameKey{"T", 0}, 64, func(buf []byte) error { loaded = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("failed load was cached; second get did not reload")
	}
	p.unpin(fr, false, 0)
}

// ---------------------------------------------------------------------
// Store-level crash recovery (MemFS)

// testStore opens a store over fs with small pages so multi-page tables
// are cheap.
func testStore(t *testing.T, fs FS) *Store {
	t.Helper()
	s, err := Open("data", fs, Options{PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testRow(id int64, tag string) datum.Row {
	return datum.Row{datum.NewInt(id), datum.NewString(tag)}
}

// insertCommitted inserts ids in one committed statement group.
func insertCommitted(t *testing.T, s *Store, tf *tableFile, ids ...int64) {
	t.Helper()
	if err := s.BeginStmt(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := s.insertRecord(tf, testRow(id, fmt.Sprintf("tag-%d", id))); err != nil {
			s.AbortStmt()
			t.Fatal(err)
		}
	}
	if err := s.CommitStmt(); err != nil {
		t.Fatal(err)
	}
}

// tableIDs scans every live record of tf and returns the first column.
func tableIDs(t *testing.T, s *Store, tf *tableFile) []int64 {
	t.Helper()
	var ids []int64
	tf.mu.RLock()
	pages := tf.pages
	tf.mu.RUnlock()
	for p := int64(0); p < pages; p++ {
		fr, err := s.pin(tf, uint32(p))
		if err != nil {
			t.Fatal(err)
		}
		pg := newPage(fr.buf)
		for slot := 0; slot < pg.slotCount(); slot++ {
			rec := pg.record(slot)
			if rec == nil {
				continue
			}
			row, err := decodeRow(rec, 2)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, row[0].Int())
		}
		s.pool.unpin(fr, false, 0)
	}
	return ids
}

// reopen simulates the post-crash open: Crash() drops unsynced bytes,
// then the directory is reopened and recovered with the table attached.
func reopen(t *testing.T, fs *MemFS) (*Store, *tableFile) {
	t.Helper()
	fs.Crash()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return s, tf
}

func TestStoreCommittedSurvivesCrashUncommittedVanishes(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	insertCommitted(t, s, tf, 1, 2, 3)

	// An uncommitted group: appended to the WAL but never committed, and
	// the process dies before AbortStmt.
	if err := s.BeginStmt(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.insertRecord(tf, testRow(99, "ghost")); err != nil {
		t.Fatal(err)
	}
	// no CommitStmt — crash now
	s2, tf2 := reopen(t, fs)
	ids := tableIDs(t, s2, tf2)
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("recovered ids %v, want [1 2 3]", ids)
	}
	if tf2.rows != 3 {
		t.Fatalf("recovered rows = %d, want 3", tf2.rows)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoveryIdempotentAcrossRepeatedCrashes(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	insertCommitted(t, s, tf, 1, 2)
	// Crash, recover, crash again without writing, recover again: same
	// state both times (replay must be idempotent).
	s2, tf2 := reopen(t, fs)
	if got := fmt.Sprint(tableIDs(t, s2, tf2)); got != "[1 2]" {
		t.Fatalf("first recovery: %v", got)
	}
	s3, tf3 := reopen(t, fs)
	if got := fmt.Sprint(tableIDs(t, s3, tf3)); got != "[1 2]" {
		t.Fatalf("second recovery: %v", got)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCheckpointThenCrashReplaysNothing(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	insertCommitted(t, s, tf, 1, 2, 3, 4)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations, committed: survive via WAL replay on
	// top of checkpointed pages.
	if err := s.BeginStmt(); err != nil {
		t.Fatal(err)
	}
	if err := s.deleteRecord(tf, storage.RID{Page: 0, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.insertRecord(tf, testRow(5, "five")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitStmt(); err != nil {
		t.Fatal(err)
	}
	s2, tf2 := reopen(t, fs)
	got := map[int64]bool{}
	for _, id := range tableIDs(t, s2, tf2) {
		got[id] = true
	}
	if got[1] || !got[2] || !got[3] || !got[4] || !got[5] {
		t.Fatalf("recovered ids %v, want {2,3,4,5}", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUpdateReplay(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	insertCommitted(t, s, tf, 1, 2)
	if err := s.BeginStmt(); err != nil {
		t.Fatal(err)
	}
	if err := s.updateRecord(tf, storage.RID{Page: 0, Slot: 0}, testRow(10, "updated")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitStmt(); err != nil {
		t.Fatal(err)
	}
	s2, tf2 := reopen(t, fs)
	got := map[int64]bool{}
	for _, id := range tableIDs(t, s2, tf2) {
		got[id] = true
	}
	if !got[10] || !got[2] || got[1] {
		t.Fatalf("after update replay: %v, want {10,2}", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTornPageRepairedByFPI(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	insertCommitted(t, s, tf, 1, 2, 3)

	// Arm a torn crash at the first checkpoint page write: half the page
	// image becomes durable, then the process dies. The checkpoint has
	// already logged and fsynced the FPI by then, so recovery must repair
	// the torn page from it.
	fi := storage.NewFaultInjector()
	fi.Add(&storage.Fault{Op: storage.FaultPageWrite, Crash: true, Torn: true})
	s.SetFaultInjector(fi)
	func() {
		defer func() {
			ce, ok := recover().(*storage.CrashError)
			if !ok {
				t.Fatalf("checkpoint did not crash with a CrashError")
			}
			if !ce.Torn {
				t.Fatal("crash error lost the Torn flag")
			}
		}()
		_ = s.Checkpoint()
		t.Fatal("checkpoint returned despite armed crash fault")
	}()
	if !s.Crashed() {
		t.Fatal("store not poisoned after crash")
	}
	if err := s.BeginStmt(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("BeginStmt on crashed store: %v, want ErrCrashed", err)
	}

	s2, tf2 := reopen(t, fs)
	if got := fmt.Sprint(tableIDs(t, s2, tf2)); got != "[1 2 3]" {
		t.Fatalf("after torn-page repair: %v, want [1 2 3]", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCrashAtEveryWALAppend(t *testing.T) {
	// Exhaustive crash schedule at the store level: for k = 0, 1, 2, ...
	// arm a crash at the k-th WAL append, run three committed groups, and
	// verify the recovered table is exactly the committed prefix.
	for k := int64(0); ; k++ {
		fs := NewMemFS()
		s := testStore(t, fs)
		tf, err := s.createTable("T", 2)
		if err != nil {
			t.Fatal(err)
		}
		fi := storage.NewFaultInjector()
		fi.Add(&storage.Fault{Op: storage.FaultWALAppend, After: k, Crash: true})
		s.SetFaultInjector(fi)

		acked := 0
		crashed := false
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(*storage.CrashError); !ok {
						panic(p)
					}
					crashed = true
				}
			}()
			for g := 0; g < 3; g++ {
				if err := s.BeginStmt(); err != nil {
					t.Fatal(err)
				}
				if _, err := s.insertRecord(tf, testRow(int64(g), "g")); err != nil {
					t.Fatal(err)
				}
				if err := s.CommitStmt(); err != nil {
					t.Fatal(err)
				}
				acked++
			}
		}()
		s2, tf2 := reopen(t, fs)
		ids := tableIDs(t, s2, tf2)
		// Every acked group must be durable; at most the in-flight group
		// may additionally have survived (commit record written but the
		// crash hit before the ack).
		if len(ids) < acked || len(ids) > acked+1 {
			t.Fatalf("k=%d: recovered %d rows, acked %d", k, len(ids), acked)
		}
		for i, id := range ids {
			if id != int64(i) {
				t.Fatalf("k=%d: recovered ids %v", k, ids)
			}
		}
		if !crashed {
			// Fault never fired: the schedule is exhausted.
			if acked != 3 {
				t.Fatalf("clean run acked %d groups, want 3", acked)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreDropTableDataRemovesFile(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	if _, err := s.createTable("T", 2); err != nil {
		t.Fatal(err)
	}
	tf := s.table("T")
	insertCommitted(t, s, tf, 1)
	if err := s.DropTableData("T"); err != nil {
		t.Fatal(err)
	}
	if s.table("T") != nil {
		t.Fatal("dropped table still registered")
	}
	for _, name := range fs.Files() {
		if name == "data/t.tbl" {
			t.Fatal("dropped table's page file still exists")
		}
	}
}

// TestStoreTombstonesReplay: a committed tombstone deletes its record
// at recovery, across a checkpoint too; an uncommitted one does not; a
// tombstone whose record the GC reaped leaves alone the record that
// later took the slot; and recovery's own reaps are logged, so a second
// crash after a slot is reused again replays cleanly.
func TestStoreTombstonesReplay(t *testing.T) {
	fs := NewMemFS()
	s := testStore(t, fs)
	tf, err := s.createTable("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	insertCommitted(t, s, tf, 1, 2, 3, 4)
	rid := func(slot int32) storage.RID { return storage.RID{Page: 0, Slot: slot} }
	group := func(begin func() error, f func() error) {
		t.Helper()
		if err := begin(); err != nil {
			t.Fatal(err)
		}
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitStmt(); err != nil {
			t.Fatal(err)
		}
	}
	// 2 is deleted and reaped, and 5 takes its slot.
	group(s.BeginStmt, func() error { return s.tombstoneRecord(tf, rid(1)) })
	group(s.BeginReap, func() error { return s.deleteRecord(tf, rid(1)) })
	insertCommitted(t, s, tf, 5)
	// 3 is deleted but stays on its page, as for an open snapshot,
	// across a checkpoint.
	group(s.BeginStmt, func() error { return s.tombstoneRecord(tf, rid(2)) })
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// 4's deletion never commits.
	if err := s.BeginStmt(); err != nil {
		t.Fatal(err)
	}
	if err := s.tombstoneRecord(tf, rid(3)); err != nil {
		t.Fatal(err)
	}
	ids := func(s *Store, tf *tableFile) string {
		got := tableIDs(t, s, tf)
		slices.Sort(got)
		return fmt.Sprint(got)
	}
	s, tf = reopen(t, fs)
	if got := ids(s, tf); got != "[1 4 5]" {
		t.Fatalf("after the first crash: ids %s, want [1 4 5]", got)
	}
	insertCommitted(t, s, tf, 6) // takes the slot recovery reaped
	s, tf = reopen(t, fs)
	if got := ids(s, tf); got != "[1 4 5 6]" {
		t.Fatalf("after the second crash: ids %s, want [1 4 5 6]", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// decodeRow parses numCols values from rec into a fresh row.
func decodeRow(rec []byte, numCols int) (datum.Row, error) {
	row := make(datum.Row, numCols)
	if err := decodeInto(row, rec, nil); err != nil {
		return nil, err
	}
	return row, nil
}
