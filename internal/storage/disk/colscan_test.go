package disk

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
)

// The DISK iterator's two read paths — Next (fresh rows) and NextCols
// (records decoded straight into lanes) — must agree record for record,
// share one scan position, and account page reads identically.

var colScanTypes = []datum.TypeID{datum.TInt, datum.TFloat, datum.TBool, datum.TString, datum.TString}

// randValue draws a value of typ: NULLs, empty and long strings, and
// extreme numbers included.
func randValue(rng *rand.Rand, typ datum.TypeID) datum.Value {
	if rng.Intn(6) == 0 {
		return datum.Null
	}
	switch typ {
	case datum.TInt:
		return datum.NewInt([]int64{0, -1, 1 << 40, -1 << 62, rng.Int63()}[rng.Intn(5)])
	case datum.TFloat:
		return datum.NewFloat(rng.NormFloat64() * 1e6)
	case datum.TBool:
		return datum.NewBool(rng.Intn(2) == 0)
	}
	switch rng.Intn(4) {
	case 0:
		return datum.NewString("")
	case 1:
		return datum.NewString(strings.Repeat("long", 20+rng.Intn(60)))
	}
	return datum.NewString(fmt.Sprintf("s%d", rng.Intn(1000)))
}

// colScanTable fills a DISK table with random rows, then deletes and
// updates a random share of them, so pages carry dead and rewritten
// slots.
func colScanTable(t *testing.T, seed int64) (*relation, *storage.IOStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := Open("data", NewMemFS(), Options{PageSize: 1024, PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	stats := &storage.IOStats{}
	rel, err := s.Manager().Create("T", len(colScanTypes), stats)
	if err != nil {
		t.Fatal(err)
	}
	r := rel.(*relation)
	row := func() datum.Row {
		out := make(datum.Row, len(colScanTypes))
		for i, typ := range colScanTypes {
			out[i] = randValue(rng, typ)
		}
		return out
	}
	stmt := func(f func() error) {
		t.Helper()
		if err := s.BeginStmt(); err != nil {
			t.Fatal(err)
		}
		if err := f(); err != nil {
			s.AbortStmt()
			t.Fatal(err)
		}
		if err := s.CommitStmt(); err != nil {
			t.Fatal(err)
		}
	}
	var rids []storage.RID
	stmt(func() error {
		for i := 0; i < 300+rng.Intn(200); i++ {
			rid, err := r.Insert(row())
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		return nil
	})
	stmt(func() error {
		for _, rid := range rids {
			switch rng.Intn(5) {
			case 0:
				if err := r.Delete(rid); err != nil {
					return err
				}
			case 1:
				// An update that outgrows its page is rejected; the
				// record keeps its old image, which is fine here.
				_ = r.Update(rid, row())
			}
		}
		return nil
	})
	return r, stats
}

// valueKey renders a value with its type, so NULL, "" and 0 differ.
func valueKey(v datum.Value) string {
	if v.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("%d:%v", v.Type(), v)
}

func rowKey(r datum.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = valueKey(v)
	}
	return strings.Join(parts, "|")
}

// drainNext reads it to exhaustion through Next.
func drainNext(it storage.RowIterator) []string {
	var out []string
	for {
		row, _, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, rowKey(row))
	}
}

// batchKeys renders b's rows from index from on.
func batchKeys(b *datum.ColBatch, from int) []string {
	var out []string
	for i := from; i < b.Len(); i++ {
		row := make(datum.Row, len(b.Vecs))
		for c := range row {
			row[c] = b.Vecs[c].ValueAt(i)
		}
		out = append(out, rowKey(row))
	}
	return out
}

// drainCols reads it to exhaustion through NextCols, max rows a call.
func drainCols(t *testing.T, it storage.RowIterator, max int) []string {
	t.Helper()
	cs := it.(storage.ColScanner)
	b := datum.NewColBatch(colScanTypes)
	var out []string
	for {
		b.Reset()
		n := cs.NextCols(b, max)
		if n != b.Len() || n > max {
			t.Fatalf("NextCols(max=%d) returned %d with %d rows in the batch", max, n, b.Len())
		}
		if n == 0 {
			return out
		}
		out = append(out, batchKeys(b, 0)...)
	}
}

func pageReads(stats *storage.IOStats) int64 {
	reads, _, _ := stats.Snapshot()
	return reads
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

func TestDiskNextColsMatchesNext(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r, stats := colScanTable(t, seed)
		stats.Reset()
		want := drainNext(r.Scan())
		wantReads := pageReads(stats)
		if len(want) == 0 || wantReads != r.PageCount() {
			t.Fatalf("seed %d: reference scan read %d records over %d page reads (%d pages)", seed, len(want), wantReads, r.PageCount())
		}

		for _, max := range []int{1, 3, 1024} {
			stats.Reset()
			got := drainCols(t, r.Scan(), max)
			sameKeys(t, fmt.Sprintf("seed %d NextCols(max=%d)", seed, max), got, want)
			if reads := pageReads(stats); reads != wantReads {
				t.Fatalf("seed %d max %d: %d page reads, Next path %d", seed, max, reads, wantReads)
			}
		}

		// Page ranges partitioning [0, PageCount()) give exactly Scan().
		rng := rand.New(rand.NewSource(seed))
		var got []string
		for lo := int64(0); lo < r.PageCount(); {
			hi := min(lo+1+rng.Int63n(4), r.PageCount())
			got = append(got, drainCols(t, r.ScanPages(lo, hi), 1+rng.Intn(8))...)
			lo = hi
		}
		sameKeys(t, fmt.Sprintf("seed %d page ranges", seed), got, want)

		// Alternating Next and NextCols on one iterator neither skips
		// nor repeats a record, and counts each page once.
		stats.Reset()
		it := r.Scan()
		b := datum.NewColBatch(colScanTypes)
		got = got[:0]
		for {
			if rng.Intn(2) == 0 {
				row, _, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, rowKey(row))
				continue
			}
			from := b.Len()
			if it.(storage.ColScanner).NextCols(b, 1+rng.Intn(5)) == 0 {
				break
			}
			got = append(got, batchKeys(b, from)...)
		}
		// Whichever call saw exhaustion, the other must agree.
		if _, _, ok := it.Next(); ok || it.(storage.ColScanner).NextCols(b, 8) != 0 {
			t.Fatalf("seed %d: records after exhaustion", seed)
		}
		sameKeys(t, fmt.Sprintf("seed %d alternating", seed), got, want)
		if reads := pageReads(stats); reads != wantReads {
			t.Fatalf("seed %d alternating: %d page reads, Next path %d", seed, reads, wantReads)
		}
	}
}

// A record that fails to decode stops the scan after the rows before
// it, with the Next path's error, and leaves no partial row behind.
func TestDiskNextColsCorruptRecord(t *testing.T) {
	r, _ := colScanTable(t, 7)
	want := drainNext(r.Scan())

	// Corrupt the tag byte of the last column of a record mid-table: the
	// first columns decode, so a decoder writing into the batch directly
	// would leave them behind.
	var bad storage.RID
	idx := -1
	seen := 0
	tf := r.tf
	for p := int64(0); p < r.PageCount() && idx < 0; p++ {
		fr, err := r.s.pin(tf, uint32(p))
		if err != nil {
			t.Fatal(err)
		}
		pg := newPage(fr.buf)
		for slot := 0; slot < pg.slotCount(); slot++ {
			rec := pg.record(slot)
			if rec == nil {
				continue
			}
			// A last byte of 0 is the last column's NULL tag or its
			// empty string's length; as 0x7f it is an unknown tag or a
			// string running past the record.
			if seen >= len(want)/2 && rec[len(rec)-1] == 0 {
				rec[len(rec)-1] = 0x7f
				bad, idx = storage.RID{Page: int32(p), Slot: int32(slot)}, seen
				break
			}
			seen++
		}
		r.s.pool.unpin(fr, false, 0)
	}
	if idx < 0 {
		t.Fatal("no record ending in NULL or an empty string to corrupt")
	}

	next := r.Scan()
	rows := drainNext(next)
	nextErr := storage.IterErr(next)
	if nextErr == nil || !strings.Contains(nextErr.Error(), fmt.Sprintf("page %d slot %d", bad.Page, bad.Slot)) {
		t.Fatalf("Next path error = %v, want one naming page %d slot %d", nextErr, bad.Page, bad.Slot)
	}
	sameKeys(t, "Next before the corrupt record", rows, want[:idx])

	for _, max := range []int{1, 3, 1024} {
		it := r.Scan()
		cs := it.(storage.ColScanner)
		b := datum.NewColBatch(colScanTypes)
		for cs.NextCols(b, max) > 0 {
		}
		sameKeys(t, fmt.Sprintf("NextCols(max=%d) before the corrupt record", max), batchKeys(b, 0), want[:idx])
		for _, v := range b.Vecs {
			if v.Len() != b.Len() {
				t.Fatalf("max %d: a lane holds %d values for %d rows (partial row appended)", max, v.Len(), b.Len())
			}
		}
		if err := storage.IterErr(it); err == nil || err.Error() != nextErr.Error() {
			t.Fatalf("max %d: NextCols error = %v, want %v", max, err, nextErr)
		}
	}
}
