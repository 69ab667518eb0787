package storage

// Searching an index again: the B-tree and R-tree recycle the iterator a
// closed search handed out, and a search that gets a recycled iterator
// must answer exactly what one with a new entry list answers, whatever
// the tree went through in between. The fault wrappers must close what
// they wrap exactly once.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datum"
)

// drain returns the entries left in it, without closing it.
func drain(it EntryIterator) []Entry {
	var out []Entry
	for {
		e, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RID != b[i].RID || CompareKeys(a[i].Key, b[i].Key) != 0 {
			return false
		}
	}
	return true
}

// researchCase is one attachment kind under the randomized loop: key
// draws a random entry key, bounds a random search range.
type researchCase struct {
	name   string
	newAt  func(t *testing.T) Attachment
	key    func(rng *rand.Rand) datum.Row
	bounds func(rng *rand.Rand) (lo, hi Bound)
}

func researchCases() []researchCase {
	intBound := func(rng *rand.Rand) Bound {
		switch k := intRow(int64(rng.Intn(300))); rng.Intn(4) {
		case 0:
			return Unbounded
		case 1:
			return Exclude(k)
		default:
			return Include(k)
		}
	}
	ptBound := func(rng *rand.Rand) Bound {
		if rng.Intn(5) == 0 {
			return Unbounded
		}
		return Include(pt(float64(rng.Intn(100)), float64(rng.Intn(100))))
	}
	return []researchCase{
		{"btree", func(t *testing.T) Attachment { return newBTree(t, false) },
			func(rng *rand.Rand) datum.Row { return intRow(int64(rng.Intn(300))) },
			func(rng *rand.Rand) (Bound, Bound) { return intBound(rng), intBound(rng) }},
		{"rtree", newRTree,
			func(rng *rand.Rand) datum.Row { return pt(float64(rng.Intn(100)), float64(rng.Intn(100))) },
			func(rng *rand.Rand) (Bound, Bound) { return ptBound(rng), ptBound(rng) }},
	}
}

// freshEntries is at's answer to [lo, hi] in a new entry list, not in
// a recycled iterator's.
func freshEntries(at Attachment, lo, hi Bound) []Entry {
	return UnwrapAttachment(at).(interface {
		fill(lo, hi Bound, out []Entry) []Entry
	}).fill(lo, hi, nil)
}

// bareIterator peels the fault wrapper off it.
func bareIterator(it EntryIterator) EntryIterator {
	if f, ok := it.(*faultEntryIterator); ok {
		return f.inner
	}
	return it
}

// TestSearchAfterCloseMatchesFreshSearch interleaves inserts (enough to
// split B-tree leaves and R-tree nodes), deletes and searches. Each
// round first leaves a whole-index search part-read and closed, so the
// next Search can get its iterator back, entries and position and all;
// that search must hold exactly what a new entry list holds, bare and
// behind a fault wrapper. Most rounds must in fact reuse the iterator.
func TestSearchAfterCloseMatchesFreshSearch(t *testing.T) {
	for _, c := range researchCases() {
		for _, wrapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrapped=%t", c.name, wrapped), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				fi := NewFaultInjector()
				at := c.newAt(t)
				if wrapped {
					at = fi.WrapAttachment("t", at)
				}
				var live []Entry
				reused := 0
				for round := 0; round < 200; round++ {
					for i := rng.Intn(40); i > 0; i-- {
						e := Entry{Key: c.key(rng), RID: RID{Page: int32(round), Slot: int32(i)}}
						if err := at.Insert(e.Key, e.RID); err != nil {
							t.Fatal(err)
						}
						live = append(live, e)
					}
					for i := rng.Intn(15); i > 0 && len(live) > 0; i-- {
						j := rng.Intn(len(live))
						if err := at.Delete(live[j].Key, live[j].RID); err != nil {
							t.Fatal(err)
						}
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					spent := at.Search(Unbounded, Unbounded)
					spent.Next()
					spent.Close()
					lo, hi := c.bounds(rng)
					want := freshEntries(at, lo, hi)
					it := at.Search(lo, hi)
					if bareIterator(it) == bareIterator(spent) {
						reused++
					}
					if got := drain(it); !sameEntries(got, want) {
						t.Fatalf("round %d %v..%v: search after a close returned %d entries, a new list %d", round, lo, hi, len(got), len(want))
					}
					it.Close()
				}
				if reused < 100 {
					t.Fatalf("%d of 200 searches reused the closed iterator", reused)
				}
				if n := fi.OpenIterators(); n != 0 {
					t.Fatalf("%d wrapped iterators left open", n)
				}
			})
		}
	}
}

// TestSearchAllocatesNothing: after one warm-up search, a B-tree point
// lookup and a 10,000-entry range each allocate nothing, read to the
// end and closed; an R-tree window allocates only its two window
// slices.
func TestSearchAllocatesNothing(t *testing.T) {
	bt := newBTree(t, false)
	for i := 0; i < 20000; i++ {
		if err := bt.Insert(intRow(int64(i%2000)), RID{Page: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rt := newRTree(t)
	for i := 0; i < 2000; i++ {
		if err := rt.Insert(pt(float64(i%50), float64(i/50)), RID{Page: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	search := func(at Attachment, lo, hi Bound, want int) func() {
		return func() {
			it := at.Search(lo, hi)
			n := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				n++
			}
			it.Close()
			if n != want {
				t.Fatalf("%d entries, want %d", n, want)
			}
		}
	}
	for _, c := range []struct {
		name   string
		search func()
		max    float64
	}{
		{"btree point", search(bt, Include(intRow(777)), Include(intRow(777)), 10), 0},
		{"btree range", search(bt, Include(intRow(100)), Exclude(intRow(1100)), 10000), 0},
		{"rtree window", search(rt, Include(pt(10, 10)), Include(pt(19, 19)), 100), 2},
	} {
		if n := testing.AllocsPerRun(20, c.search); n > c.max {
			t.Errorf("%s: a search allocated %.0f objects, want at most %.0f", c.name, n, c.max)
		}
	}
}

// TestCloseTwiceRecyclesOnce: an iterator closed twice goes back to the
// pool once, so two searches open at the same time after it never
// share one iterator, and each answers its own range.
func TestCloseTwiceRecyclesOnce(t *testing.T) {
	bt := newBTree(t, false)
	for i := 0; i < 100; i++ {
		if err := bt.Insert(intRow(int64(i)), RID{Page: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		it := bt.Search(Unbounded, Unbounded)
		it.Close()
		it.Close()
		a := bt.Search(Include(intRow(10)), Include(intRow(19)))
		b := bt.Search(Include(intRow(50)), Include(intRow(54)))
		if a == b {
			t.Fatalf("round %d: two open searches share one iterator", round)
		}
		if ka, kb := collectKeys(t, a), collectKeys(t, b); len(ka) != 10 || ka[0] != 10 || len(kb) != 5 || kb[0] != 50 {
			t.Fatalf("round %d: searches returned %v and %v", round, ka, kb)
		}
	}
}

// TestKeptIteratorsBounded: of many iterators closed at once, at most
// maxFreeIters wait for reuse, and one whose entry list outgrew
// maxKeptEntries is not kept at all.
func TestKeptIteratorsBounded(t *testing.T) {
	bt := newBTree(t, false)
	for i := 0; i < 2*maxKeptEntries; i++ {
		if err := bt.Insert(intRow(int64(i)), RID{Page: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	open := make([]EntryIterator, 2*maxFreeIters)
	for i := range open {
		open[i] = bt.Search(Include(intRow(int64(i))), Include(intRow(int64(i))))
	}
	for _, it := range open {
		it.Close()
	}
	entryIters.Lock()
	kept := len(entryIters.free)
	entryIters.Unlock()
	if kept != maxFreeIters {
		t.Fatalf("%d iterators kept, want %d", kept, maxFreeIters)
	}
	long := bt.Search(Unbounded, Unbounded)
	long.Close()
	it := bt.Search(Unbounded, Exclude(intRow(0)))
	it.Close()
	if it == long {
		t.Fatal("an iterator that held every entry was kept")
	}
}

// TestIterErrAfterClose: IterErr stays valid on a closed iterator: nil
// for a recycled B-tree or R-tree iterator, and a fault wrapper's
// injected error still.
func TestIterErrAfterClose(t *testing.T) {
	for _, at := range []Attachment{newBTree(t, false), newRTree(t)} {
		key := intRow(1)
		if _, ok := at.(*rtree); ok {
			key = pt(1, 1)
		}
		if err := at.Insert(key, RID{}); err != nil {
			t.Fatal(err)
		}
		it := at.Search(Unbounded, Unbounded)
		drain(it)
		it.Close()
		if err := IterErr(it); err != nil {
			t.Fatalf("%T: IterErr after Close: %v", at, err)
		}
		fi := NewFaultInjector()
		fi.Add(&Fault{Table: "t", Op: FaultIxSearch, Err: "boom"})
		it = fi.WrapAttachment("t", at).Search(Unbounded, Unbounded)
		drain(it)
		it.Close()
		if err := IterErr(it); err == nil {
			t.Fatalf("%T: a faulted search reads clean after Close", at)
		}
	}
}

// TestSearchRacingWriter: searches racing a writer that splits and
// shrinks the tree, each taking the iterator the last one closed, see a
// consistent range: in bounds and (for the B-tree) in key order.
func TestSearchRacingWriter(t *testing.T) {
	for _, c := range researchCases() {
		t.Run(c.name, func(t *testing.T) {
			at := c.newAt(t)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(3))
				var live []Entry
				for i := 0; i < 3000; i++ {
					e := Entry{Key: c.key(rng), RID: RID{Page: int32(i)}}
					if err := at.Insert(e.Key, e.RID); err != nil {
						t.Error(err)
						return
					}
					live = append(live, e)
					if i%3 == 0 {
						j := rng.Intn(len(live))
						if err := at.Delete(live[j].Key, live[j].RID); err != nil {
							t.Error(err)
							return
						}
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
			}()
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 300; i++ {
				lo, hi := c.bounds(rng)
				it := at.Search(lo, hi)
				var prev datum.Row
				for _, e := range drain(it) {
					if c.name == "btree" {
						if (!lo.Unbounded && CompareKeys(e.Key, lo.Key) < 0) || (!hi.Unbounded && CompareKeys(e.Key, hi.Key) > 0) {
							t.Fatalf("entry %v outside %v..%v", e.Key, lo, hi)
						}
						if prev != nil && CompareKeys(prev, e.Key) > 0 {
							t.Fatalf("entries out of order: %v before %v", prev, e.Key)
						}
						prev = e.Key
					}
				}
				it.Close()
			}
			wg.Wait()
		})
	}
}

type countingEntryIter struct{ closes int }

func (c *countingEntryIter) Next() (Entry, bool) { return Entry{}, false }
func (c *countingEntryIter) Close()              { c.closes++ }

type countingAttachment struct {
	Attachment
	it *countingEntryIter
}

func (a countingAttachment) Search(lo, hi Bound) EntryIterator { return a.it }

type countingRowIter struct{ closes int }

func (c *countingRowIter) Next() (datum.Row, RID, bool) { return nil, RID{}, false }
func (c *countingRowIter) Close()                       { c.closes++ }

type countingRelation struct {
	Relation
	it *countingRowIter
}

func (r countingRelation) Scan() RowIterator { return r.it }

// TestFaultEntryIteratorClosesInnerOnce: closing a wrapped index
// iterator twice closes the iterator it wraps once.
func TestFaultEntryIteratorClosesInnerOnce(t *testing.T) {
	fi := NewFaultInjector()
	inner := &countingEntryIter{}
	it := fi.WrapAttachment("t", countingAttachment{it: inner}).Search(Unbounded, Unbounded)
	it.Close()
	it.Close()
	if inner.closes != 1 || fi.OpenIterators() != 0 {
		t.Fatalf("inner closed %d times, %d iterators open; want 1 and 0", inner.closes, fi.OpenIterators())
	}
}

// TestFaultRowIteratorClosesInnerOnce: closing a wrapped scan twice
// closes the scan it wraps once.
func TestFaultRowIteratorClosesInnerOnce(t *testing.T) {
	fi := NewFaultInjector()
	inner := &countingRowIter{}
	it := fi.WrapRelation("t", countingRelation{it: inner}).Scan()
	it.Close()
	it.Close()
	if inner.closes != 1 || fi.OpenIterators() != 0 {
		t.Fatalf("inner closed %d times, %d iterators open; want 1 and 0", inner.closes, fi.OpenIterators())
	}
}
