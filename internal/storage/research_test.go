package storage

// Re-searching a closed index iterator (SearchAgain): a re-aimed
// iterator must answer exactly what a fresh Search answers, whatever
// the tree went through in between, and the fault wrappers must close
// what they wrap exactly once.

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

// TestSearchAgainMatchesFreshSearch interleaves inserts (enough to
// split B-tree leaves and R-tree nodes), deletes and searches; every
// re-search of the closed iterator must return spent itself, holding
// exactly what a fresh Search returns, bare and behind a fault wrapper.
// An iterator of another attachment, an open wrapped iterator, or a
// bare one offered to the wrapper falls back to a fresh search.
func TestSearchAgainMatchesFreshSearch(t *testing.T) {
	for _, c := range researchCases() {
		for _, wrapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrapped=%t", c.name, wrapped), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				fi := NewFaultInjector()
				at, other := c.newAt(t), c.newAt(t)
				if wrapped {
					at = fi.WrapAttachment("t", at)
				}
				var live []Entry
				var spent EntryIterator
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
					lo, hi := c.bounds(rng)
					fresh := at.Search(lo, hi)
					want := drain(fresh)
					fresh.Close()
					it := SearchAgain(at, spent, lo, hi)
					if spent != nil && it != spent {
						t.Fatalf("round %d: a closed iterator of the attachment was not re-aimed", round)
					}
					if got := drain(it); !sameEntries(got, want) {
						t.Fatalf("round %d %v..%v: re-search returned %d entries, fresh search %d", round, lo, hi, len(got), len(want))
					}
					if wrapped {
						if open := SearchAgain(at, it, lo, hi); open == it {
							t.Fatalf("round %d: an open wrapped iterator was re-aimed", round)
						} else {
							open.Close()
						}
					}
					it.Close()
					// Another attachment's iterator is no spent iterator of at.
					foreign := other.Search(Unbounded, Unbounded)
					foreign.Close()
					if got := SearchAgain(at, foreign, lo, hi); got == foreign {
						t.Fatalf("round %d: an iterator of another attachment was re-aimed", round)
					} else {
						got.Close()
					}
					spent = it
				}
				if wrapped {
					if bare := SearchAgain(at.(*FaultAttachment).Unwrap(), spent, Unbounded, Unbounded); bare == spent {
						t.Fatal("a wrapped iterator was re-aimed at the bare attachment")
					}
					if n := fi.OpenIterators(); n != 0 {
						t.Fatalf("%d wrapped iterators left open", n)
					}
				}
			})
		}
	}
}

// TestSearchAgainAllocatesNothing: once a B-tree search's entry list
// has grown to its range, re-searching the range allocates nothing.
func TestSearchAgainAllocatesNothing(t *testing.T) {
	bt := newBTree(t, false)
	for i := 0; i < 2000; i++ {
		if err := bt.Insert(intRow(int64(i%100)), RID{Page: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := Include(intRow(10)), Include(intRow(30))
	spent := bt.Search(lo, hi)
	spent.Close()
	allocs := testing.AllocsPerRun(50, func() {
		it := SearchAgain(bt, spent, lo, hi)
		n := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
		if n != 21*20 {
			t.Fatalf("%d entries, want %d", n, 21*20)
		}
		it.Close()
	})
	if allocs != 0 {
		t.Fatalf("re-search allocated %.0f objects, want none", allocs)
	}
}

// TestSearchAgainRacingWriter: re-searches racing a writer that splits
// and shrinks the tree each see a consistent range: in bounds and (for
// the B-tree) in key order.
func TestSearchAgainRacingWriter(t *testing.T) {
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
			var spent EntryIterator
			for i := 0; i < 300; i++ {
				lo, hi := c.bounds(rng)
				it := SearchAgain(at, spent, lo, hi)
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
				spent = it
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
