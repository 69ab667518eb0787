package disk

// Tests for what the read, log and write paths reuse instead of
// allocating: the WAL writer's one frame buffer, each table's record
// buffer, recycled buffer-pool frames, and the scan's string interner,
// whose strings must stay right after the pages they were decoded from
// are gone.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
)

// nullFile keeps nothing it is given, so an append costs only the
// writer itself.
type nullFile struct{ File }

func (nullFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }

func TestWALAppendAllocationFree(t *testing.T) {
	w := &walWriter{f: nullFile{}, off: int64(len(walMagic)), nextLSN: 1}
	rec := &walRecord{kind: walInsert, stmtID: 7, table: "LINEORDER", pageNo: 3, slot: 2, data: []byte("a record's bytes")}
	if _, err := w.append(rec); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a steady-state WAL append allocates %v times", n)
	}
}

// TestRowWritesAllocationFree: inside an open statement, a row insert
// or update encodes into the table's record buffer, which the page and
// the WAL frame copy, so neither allocates.
func TestRowWritesAllocationFree(t *testing.T) {
	s, err := Open("data", NewMemFS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := s.Manager().Create("T", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := datum.Row{datum.NewInt(1), datum.NewString("a record's string")}
	rid, err := rel.Insert(row) // sizes the record buffer
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginStmt(); err != nil {
		t.Fatal(err)
	}
	defer s.AbortStmt()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rel.Insert(row); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a row insert allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := rel.Update(rid, row); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a row update allocates %v times", n)
	}
	if got, ok := rel.Fetch(rid); !ok || !datum.RowsEqual(got, row) {
		t.Fatalf("Fetch(%v) = %v, %v after the updates; want %v", rid, got, ok, row)
	}
}

func TestPoolMissReusesFrameWithoutAllocating(t *testing.T) {
	p := newPool(4)
	load := func(buf []byte) error { buf[0]++; return nil }
	page := uint32(0)
	miss := func() {
		fr, err := p.get(frameKey{"T", page}, 64, load)
		if err != nil {
			t.Fatal(err)
		}
		p.unpin(fr, false, 0)
		page++
	}
	for range 8 { // fill the pool; every later miss recycles a frame
		miss()
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Fatalf("a pool miss that recycles a frame allocates %v times", n)
	}
	if _, misses, evicts, overflow := p.stats(); misses != int64(page) || evicts != misses-4 || overflow != 0 {
		t.Fatalf("misses=%d evicts=%d overflow=%d after %d distinct pages", misses, evicts, overflow, page)
	}
}

// TestPoolConcurrentGetsCoalesce: getters racing over more pages than
// frames each see their own page loaded, whether they load it, wait on
// another getter's load, or hit; frames and their load signals are
// recycled under them.
func TestPoolConcurrentGetsCoalesce(t *testing.T) {
	p := newPool(4)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 400 {
				page := uint32((g + i*7) % 12)
				fr, err := p.get(frameKey{"T", page}, 64, func(buf []byte) error {
					buf[0] = byte(page)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if fr.buf[0] != byte(page) {
					t.Errorf("got page %d's frame holding page %d", page, fr.buf[0])
				}
				p.unpin(fr, false, 0)
			}
		}()
	}
	wg.Wait()
	if hits, misses, _, _ := p.stats(); hits+misses != 8*400 {
		t.Fatalf("%d hits and %d misses for %d gets", hits, misses, 8*400)
	}
}

// scanTable makes a DISK table of (id INT, s STRING) rows in a pool far
// smaller than the table, so a scan evicts and reloads frames.
func scanTable(t *testing.T, n int, str func(i int) string) (*Store, *relation) {
	t.Helper()
	s, err := Open("data", NewMemFS(), Options{PageSize: 256, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := s.Manager().Create("T", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rel.(*relation)
	for i := range n {
		if _, err := r.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewString(str(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if r.PageCount() < 16 {
		t.Fatalf("%d pages: the table does not outgrow the 4-frame pool", r.PageCount())
	}
	return s, r
}

// scanStrings reads the table's STRING column in RID order, through
// Next and through NextCols, and checks both against want.
func scanStrings(t *testing.T, r *relation, want func(i int) string) (next, cols []string) {
	t.Helper()
	it := r.Scan()
	for row, _, ok := it.Next(); ok; row, _, ok = it.Next() {
		next = append(next, row[1].Str())
	}
	b := datum.NewColBatch([]datum.TypeID{datum.TInt, datum.TString})
	it = r.Scan()
	for it.(storage.ColScanner).NextCols(b, 64) > 0 {
		for i := range b.Len() {
			cols = append(cols, b.Vecs[1].ValueAt(i).Str())
		}
		b.Reset()
	}
	if err := storage.IterErr(it); err != nil {
		t.Fatal(err)
	}
	for i := range len(next) {
		if next[i] != want(i) || cols[i] != want(i) {
			t.Fatalf("row %d: Next %q, NextCols %q, want %q", i, next[i], cols[i], want(i))
		}
	}
	if len(next) != len(cols) {
		t.Fatalf("Next read %d rows, NextCols %d", len(next), len(cols))
	}
	return next, cols
}

var shipModes = []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}

// TestScannedStringsSurviveEviction: strings a scan handed out stay
// right after their pages are evicted and the frames that held them
// are overwritten with other pages and other records.
func TestScannedStringsSurviveEviction(t *testing.T) {
	mode := func(i int) string { return shipModes[i%len(shipModes)] }
	s, r := scanTable(t, 600, mode)
	next, cols := scanStrings(t, r, mode)
	if len(next) != 600 {
		t.Fatalf("scanned %d rows, want 600", len(next))
	}
	// Rewrite every record in place, each page through a recycled frame.
	lower := func(i int) string { return strings.ToLower(mode(i)) }
	var rids []storage.RID
	it := r.Scan()
	for _, rid, ok := it.Next(); ok; _, rid, ok = it.Next() {
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		if err := r.Update(rid, datum.Row{datum.NewInt(int64(i)), datum.NewString(lower(i))}); err != nil {
			t.Fatal(err)
		}
	}
	scanStrings(t, r, lower)
	for i := range 600 {
		if next[i] != mode(i) || cols[i] != mode(i) {
			t.Fatalf("row %d: kept strings changed to %q and %q after their pages were overwritten, want %q", i, next[i], cols[i], mode(i))
		}
	}
	if _, _, evicts, _ := s.pool.stats(); evicts == 0 {
		t.Fatal("no frame was evicted")
	}
}

// TestUniqueStringsScanPastInternCap: a column whose every value
// differs fills the interner and goes on scanning correctly past it.
func TestUniqueStringsScanPastInternCap(t *testing.T) {
	unique := func(i int) string { return fmt.Sprintf("u%05d", i) }
	n := 3 * internCap
	_, r := scanTable(t, n, unique)
	next, cols := scanStrings(t, r, unique)
	if len(next) != n {
		t.Fatalf("scanned %d rows, want %d", len(next), n)
	}
	for i := range n { // the strings kept from the first scan are still right
		if next[i] != unique(i) || cols[i] != unique(i) {
			t.Fatalf("row %d: %q and %q, want %q", i, next[i], cols[i], unique(i))
		}
	}
}

// FuzzWALFrames round-trips a random record sequence through one
// writer's reused frame buffer and walScan, then cuts the log at a
// random byte or flips one: the scan must end cleanly at the last
// frame before the damage.
func FuzzWALFrames(f *testing.F) {
	f.Add([]byte{0, 200, 1, 1, 3, 2, 5, 0, 3, 8, 40, 9}, uint16(30), byte(1))
	f.Add([]byte{6, 255, 0, 0, 1, 7, 2, 2, 2}, uint16(0), byte(0))
	kinds := []byte{walInsert, walDelete, walUpdate, walDDL, walCommit, walFPI, walTxnCommit, walTombstone}
	f.Fuzz(func(t *testing.T, script []byte, at uint16, flip byte) {
		fs := NewMemFS()
		file, err := fs.OpenFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		w, err := newWalFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var want []walRecord
		var ends []int64 // offset past each record's frame
		for i := 0; i+2 < len(script) && len(want) < 64; i += 3 {
			r := walRecord{kind: kinds[int(script[i])%len(kinds)], stmtID: uint64(script[i+2]), txnID: uint64(script[i+1])}
			switch r.kind {
			case walInsert, walUpdate, walDDL, walFPI:
				r.data = bytes.Repeat([]byte{script[i+2]}, int(script[i+1])*int(script[i+1]%8))
			}
			switch r.kind {
			case walInsert, walUpdate, walDelete, walTombstone:
				r.slot = uint32(script[i+2])
				fallthrough
			case walFPI:
				r.table = string(bytes.Repeat([]byte("T"), 1+int(script[i+1])%12))
				r.pageNo = uint32(script[i+1])
			}
			if r.kind != walCommit && r.kind != walTxnCommit {
				r.txnID = 0
			}
			if r.kind == walFPI || r.kind == walTxnCommit {
				r.stmtID = 0
			}
			if _, err := w.append(&r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
			ends = append(ends, w.off)
		}
		check := func(what string, size int64, intact int) {
			t.Helper()
			got, end, last, err := walScan(file, size)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(got) != intact {
				t.Fatalf("%s: scanned %d records, want %d", what, len(got), intact)
			}
			wantEnd := int64(len(walMagic))
			if intact > 0 {
				wantEnd = ends[intact-1]
			}
			if size < int64(len(walMagic)) {
				wantEnd = 0
			}
			if end != wantEnd || last != uint64(intact) {
				t.Fatalf("%s: intact end %d, last LSN %d; want %d, %d", what, end, last, wantEnd, intact)
			}
			for i, r := range got {
				wr := want[i]
				if r.lsn != uint64(i+1) || r.kind != wr.kind || r.stmtID != wr.stmtID || r.txnID != wr.txnID ||
					r.table != wr.table || r.pageNo != wr.pageNo || r.slot != wr.slot || !bytes.Equal(r.data, wr.data) {
					t.Fatalf("%s: record %d = %+v, want %+v", what, i, *r, wr)
				}
			}
		}
		size := w.off
		check("whole log", size, len(want))

		// A torn tail: the log ends at byte cut.
		cut := int64(at) % (size + 1)
		intact := 0
		for intact < len(ends) && ends[intact] <= cut {
			intact++
		}
		if err := file.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("cut at %d of %d", cut, size), cut, intact)

		// A damaged frame: one byte of frame intact (after the cut)
		// flipped, which ends the scan before that frame.
		if intact == 0 || flip == 0 {
			return
		}
		start := int64(len(walMagic))
		if intact > 1 {
			start = ends[intact-2]
		}
		pos := start + int64(at)%(ends[intact-1]-start)
		b := make([]byte, 1)
		if _, err := file.ReadAt(b, pos); err != nil {
			t.Fatal(err)
		}
		b[0] ^= flip
		if _, err := file.WriteAt(b, pos); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("byte %d flipped", pos), cut, intact-1)
	})
}
