package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
)

// The in-memory managers — HEAP at any page size and FIXED, its
// fixed-length configuration — share one relation and one iterator, so
// their two read paths, Next and NextCols, must agree record for record,
// share one scan position and account page reads identically.

var heapScanTypes = []datum.TypeID{datum.TInt, datum.TFloat, datum.TBool}

func inMemoryManagers() []StorageManager {
	return []StorageManager{NewHeapManager(4), NewHeapManager(64), NewFixedManager()}
}

func randFixedRow(rng *rand.Rand) datum.Row {
	row := make(datum.Row, len(heapScanTypes))
	for i, typ := range heapScanTypes {
		switch {
		case rng.Intn(6) == 0:
			row[i] = datum.Null
		case typ == datum.TInt:
			row[i] = datum.NewInt(rng.Int63n(1 << 40))
		case typ == datum.TFloat:
			row[i] = datum.NewFloat(rng.NormFloat64())
		default:
			row[i] = datum.NewBool(rng.Intn(2) == 0)
		}
	}
	return row
}

// heapScanTable fills a relation of m with random rows, then empties its
// second page entirely and deletes or updates a random share of the
// rest, so the scan crosses empty and part-empty pages.
func heapScanTable(t *testing.T, m StorageManager, seed int64) (Relation, *IOStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stats := &IOStats{}
	rel, err := m.Create("T", len(heapScanTypes), stats)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 900+rng.Intn(200); i++ {
		rid, err := rel.Insert(randFixedRow(rng))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, rid := range rids {
		switch {
		case rid.Page == 1 || rng.Intn(4) == 0:
			err = rel.Delete(rid)
		case rng.Intn(4) == 0:
			err = rel.Update(rid, randFixedRow(rng))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return rel, stats
}

// rowKey renders a row with its value types, so NULL, false and 0 differ.
func rowKey(r datum.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = "NULL"
		if !v.IsNull() {
			parts[i] = fmt.Sprintf("%d:%v", v.Type(), v)
		}
	}
	return strings.Join(parts, "|")
}

func drainNext(it RowIterator) []string {
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

func drainCols(t *testing.T, it RowIterator, max int) []string {
	t.Helper()
	cs := it.(ColScanner)
	b := datum.NewColBatch(heapScanTypes)
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

func pageReads(stats *IOStats) int64 {
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

func TestInMemoryScanConformance(t *testing.T) {
	for _, m := range inMemoryManagers() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", m.Name(), seed), func(t *testing.T) {
				rel, stats := heapScanTable(t, m, seed)
				stats.Reset()
				want := drainNext(rel.Scan())
				wantReads := pageReads(stats)
				if len(want) == 0 || len(want) != int(rel.RowCount()) || wantReads != rel.PageCount() {
					t.Fatalf("reference scan read %d of %d records over %d page reads (%d pages)",
						len(want), rel.RowCount(), wantReads, rel.PageCount())
				}

				for _, max := range []int{1, 3, 1024} {
					stats.Reset()
					sameKeys(t, fmt.Sprintf("NextCols(max=%d)", max), drainCols(t, rel.Scan(), max), want)
					if reads := pageReads(stats); reads != wantReads {
						t.Fatalf("max %d: %d page reads, Next path %d", max, reads, wantReads)
					}
				}

				// Page ranges partitioning [0, PageCount()) give exactly Scan().
				rng := rand.New(rand.NewSource(seed))
				pr := rel.(PageRangeScanner)
				var got []string
				for lo := int64(0); lo < rel.PageCount(); {
					hi := min(lo+1+rng.Int63n(4), rel.PageCount())
					if rng.Intn(2) == 0 {
						got = append(got, drainNext(pr.ScanPages(lo, hi))...)
					} else {
						got = append(got, drainCols(t, pr.ScanPages(lo, hi), 1+rng.Intn(8))...)
					}
					lo = hi
				}
				sameKeys(t, "page ranges", got, want)

				// Alternating Next and NextCols on one iterator neither skips
				// nor repeats a record, and counts each page once.
				stats.Reset()
				it := rel.Scan()
				b := datum.NewColBatch(heapScanTypes)
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
					if it.(ColScanner).NextCols(b, 1+rng.Intn(5)) == 0 {
						break
					}
					got = append(got, batchKeys(b, from)...)
				}
				if _, _, ok := it.Next(); ok || it.(ColScanner).NextCols(b, 8) != 0 {
					t.Fatal("records after exhaustion")
				}
				sameKeys(t, "alternating", got, want)
				if reads := pageReads(stats); reads != wantReads {
					t.Fatalf("alternating: %d page reads, Next path %d", reads, wantReads)
				}
			})
		}
	}
}

// TestFixedIsHeapConfiguration: FIXED is HEAP at 256 records a page, so
// one write sequence leaves both with the same RIDs, pages, row count
// and scan page reads.
func TestFixedIsHeapConfiguration(t *testing.T) {
	type trace struct {
		rids               []RID
		pages, rows, reads int64
		scan               []string
	}
	run := func(m StorageManager) trace {
		rng := rand.New(rand.NewSource(11))
		stats := &IOStats{}
		rel, err := m.Create("T", len(heapScanTypes), stats)
		if err != nil {
			t.Fatal(err)
		}
		var tr trace
		for i := 0; i < 700; i++ {
			rid, err := rel.Insert(randFixedRow(rng))
			if err != nil {
				t.Fatal(err)
			}
			tr.rids = append(tr.rids, rid)
		}
		for i, rid := range tr.rids {
			switch i % 5 {
			case 0, 1:
				if err := rel.Delete(rid); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := rel.Update(rid, randFixedRow(rng)); err != nil {
					t.Fatal(err)
				}
			}
		}
		stats.Reset()
		tr.scan = drainNext(rel.Scan())
		tr.pages, tr.rows, tr.reads = rel.PageCount(), rel.RowCount(), pageReads(stats)
		return tr
	}
	fixed, heap := run(NewFixedManager()), run(NewHeapManager(256))
	if fixed.pages != heap.pages || fixed.rows != heap.rows || fixed.reads != heap.reads {
		t.Fatalf("FIXED pages/rows/reads %d/%d/%d, HEAP(256) %d/%d/%d",
			fixed.pages, fixed.rows, fixed.reads, heap.pages, heap.rows, heap.reads)
	}
	for i := range heap.rids {
		if fixed.rids[i] != heap.rids[i] {
			t.Fatalf("insert %d: FIXED rid %s, HEAP(256) rid %s", i, fixed.rids[i], heap.rids[i])
		}
	}
	sameKeys(t, "FIXED scan vs HEAP(256)", fixed.scan, heap.scan)
}

// TestWritePathsCheckRows: Insert and Update reject a row of the wrong
// width under every in-memory manager, and FIXED also rejects a
// variable-length value on each of them; a rejected write leaves the
// relation as it was.
func TestWritePathsCheckRows(t *testing.T) {
	for _, m := range inMemoryManagers() {
		t.Run(m.Name(), func(t *testing.T) {
			rel, err := m.Create("T", 2, &IOStats{})
			if err != nil {
				t.Fatal(err)
			}
			live, err := rel.Insert(intRow(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			bad := map[string]datum.Row{"narrow": intRow(1), "wide": intRow(1, 2, 3)}
			if m.Name() == "FIXED" {
				bad["string"] = datum.Row{datum.NewInt(1), datum.NewString("x")}
			}
			for what, row := range bad {
				if _, err := rel.Insert(row); err == nil {
					t.Errorf("Insert of a %s row succeeded", what)
				}
				if err := rel.Update(live, row); err == nil {
					t.Errorf("Update to a %s row succeeded", what)
				}
			}
			if r, ok := rel.Fetch(live); !ok || !datum.RowsEqual(r, intRow(1, 2)) {
				t.Fatalf("live record is %v, %v after rejected writes", r, ok)
			}
			if n := rel.RowCount(); n != 1 {
				t.Fatalf("%d records after rejected inserts, want 1", n)
			}
		})
	}
}

// TestInMemoryScanRacingWriters: scans alternating Next and NextCols
// run while writers insert, update, delete and re-insert other records;
// every record no writer touches is seen exactly once per scan. Run
// under -race (make stress) it also proves the read lock covers the
// shared scan step.
func TestInMemoryScanRacingWriters(t *testing.T) {
	for _, m := range inMemoryManagers() {
		t.Run(m.Name(), func(t *testing.T) {
			rel, err := m.Create("T", 2, &IOStats{})
			if err != nil {
				t.Fatal(err)
			}
			// Every other record is stable, with a negative first column;
			// churned ones carry a non-negative one.
			const stable = 200
			var churn []RID
			for i := 0; i < 2*stable; i++ {
				if i%2 == 0 {
					if _, err := rel.Insert(intRow(-int64(i)-1, 0)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				rid, err := rel.Insert(intRow(int64(i), 0))
				if err != nil {
					t.Fatal(err)
				}
				churn = append(churn, rid)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			defer func() { close(stop); wg.Wait() }()
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for round := int64(1); ; round++ {
						select {
						case <-stop:
							return
						default:
						}
						for i := w; i < len(churn); i += 2 {
							rid := churn[i]
							if err := rel.Update(rid, intRow(int64(i), round)); err != nil {
								t.Error(err)
								return
							}
							if err := rel.Delete(rid); err != nil {
								t.Error(err)
								return
							}
							rid, err := rel.Insert(intRow(int64(i), -round))
							if err != nil {
								t.Error(err)
								return
							}
							churn[i] = rid
						}
						if _, err := rel.Insert(intRow(1<<40+round, round)); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			rng := rand.New(rand.NewSource(3))
			b := datum.NewColBatch([]datum.TypeID{datum.TInt, datum.TInt})
			for scan := 0; scan < 20; scan++ {
				seen := map[int64]int{}
				note := func(k int64) {
					if k < 0 {
						seen[k]++
					}
				}
				it := rel.Scan()
				for {
					if rng.Intn(2) == 0 {
						row, _, ok := it.Next()
						if !ok {
							break
						}
						note(row[0].Int())
						continue
					}
					b.Reset()
					if it.(ColScanner).NextCols(b, 1+rng.Intn(16)) == 0 {
						break
					}
					for i := 0; i < b.Len(); i++ {
						note(b.Vecs[0].ValueAt(i).Int())
					}
				}
				if len(seen) != stable {
					t.Fatalf("scan %d saw %d stable records, want %d", scan, len(seen), stable)
				}
				for k, n := range seen {
					if n != 1 {
						t.Fatalf("scan %d saw stable record %d %d times", scan, k, n)
					}
				}
			}
		})
	}
}
