package storage

// The B-tree's leaf layout: what an entry costs, that deletes give
// leaves back, that keys a search handed out never change, and a
// model-based fuzz target over the whole attachment.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/datum"
)

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// treeBytes is what t holds on the heap: every node reachable from the
// root or on the leaf chain, with its cell, slot, separator, RID and
// child arrays at their capacity and its separator rows' values (INT
// keys own no further bytes).
func treeBytes(t *btree) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	const value, row = int64(unsafe.Sizeof(datum.Value{})), int64(unsafe.Sizeof(datum.Row(nil)))
	seen := map[*btnode]bool{}
	var size int64
	var walk func(n *btnode)
	walk = func(n *btnode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		size += int64(unsafe.Sizeof(*n)) + value*int64(cap(n.cells)) + 4*int64(cap(n.slots)) +
			row*int64(cap(n.keys)) + int64(unsafe.Sizeof(RID{}))*int64(cap(n.rids)) + int64(unsafe.Sizeof(n))*int64(cap(n.children))
		for _, k := range n.keys {
			size += value * int64(cap(k))
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	for n := t.first; n != nil; n = n.next {
		walk(n)
	}
	return size
}

// TestBTreeRetainedBytes bounds what an index entry of one INT key
// costs on the heap once loaded, for three load orders. Its payload is
// 32 B: a 24-byte Value and an 8-byte RID.
func TestBTreeRetainedBytes(t *testing.T) {
	const n = 100000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, c := range []struct {
		name  string
		key   func(i int) int64
		bound float64
	}{
		{"ascending", func(i int) int64 { return int64(i) }, 48},
		{"random", func(i int) int64 { return int64(perm[i]) }, 68},
		{"eight-keys", func(i int) int64 { return int64(i % 8) }, 52},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := liveHeap()
			at, err := BTreeMethod{}.New([]datum.TypeID{datum.TInt}, false, &IOStats{})
			if err != nil {
				t.Fatal(err)
			}
			key := make(datum.Row, 1)
			for i := 0; i < n; i++ {
				key[0] = datum.NewInt(c.key(i))
				if err := at.Insert(key, RID{Page: int32(i)}); err != nil {
					t.Fatal(err)
				}
			}
			per := float64(liveHeap()-base) / n
			runtime.KeepAlive(at)
			t.Logf("%.1f B per entry", per)
			if per > c.bound {
				t.Errorf("%.1f B per entry, want at most %.0f", per, c.bound)
			}
		})
	}
}

// TestBTreeSlidingWindowKeepsSize: a unique index holding a window of
// 1,000 live keys (insert ascending, delete the oldest, as version GC
// does to a queue-like table) keeps its size however far the window
// slides, because a leaf that deletes empty leaves the tree. The size
// is the tree's own (treeBytes), not the process heap, so nothing else
// the test binary runs moves it.
func TestBTreeSlidingWindowKeepsSize(t *testing.T) {
	const live = 1000
	at, err := BTreeMethod{}.New([]datum.TypeID{datum.TInt}, true, &IOStats{})
	if err != nil {
		t.Fatal(err)
	}
	key := make(datum.Row, 1)
	next := 0
	slide := func(pairs int) int64 {
		for ; pairs > 0; pairs-- {
			if next >= live {
				key[0] = datum.NewInt(int64(next - live))
				if err := at.Delete(key, RID{Page: int32(next - live)}); err != nil {
					t.Fatal(err)
				}
			}
			key[0] = datum.NewInt(int64(next))
			if err := at.Insert(key, RID{Page: int32(next)}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		return treeBytes(at.(*btree))
	}
	slide(live)
	at50k := slide(50000)
	at200k := slide(150000)
	if at.Len() != live {
		t.Fatalf("Len = %d, want %d", at.Len(), live)
	}
	t.Logf("%d B after 50k pairs, %d B after 200k", at50k, at200k)
	if d := at200k - at50k; d < -at50k/10 || d > at50k/10 {
		t.Fatalf("retained %d B after 50k delete+insert pairs but %d B after 200k, want within 10%%", at50k, at200k)
	}
	if keys := collectKeys(t, at.Search(Unbounded, Unbounded)); len(keys) != live || keys[0] != int64(next-live) {
		t.Fatalf("scan returned %d keys, want %d from %d", len(keys), live, next-live)
	}
}

// TestRetainedEntryKeysSurviveConcurrentWrites pins the read-only-key
// contract on Attachment.Search: the B-tree hands out its stored key
// cells, so a key kept from a Search, or from one that reused a closed
// search's iterator, must stay identical while a writer inserts and
// deletes in the same leaves, splitting and compacting them. Run under -race: a writer touching a
// handed-out key would be a reported data race as well as a mismatch.
func TestRetainedEntryKeysSurviveConcurrentWrites(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			types := []datum.TypeID{datum.TInt, datum.TString}[:width]
			at, err := BTreeMethod{}.New(types, false, &IOStats{})
			if err != nil {
				t.Fatal(err)
			}
			keyOf := func(k int) datum.Row {
				row := datum.Row{datum.NewInt(int64(k % 200))}
				if width == 2 {
					row = append(row, datum.NewString(fmt.Sprint(k%7)))
				}
				return row
			}
			rng := rand.New(rand.NewSource(5))
			var live []Entry
			for i := 0; i < 2000; i++ {
				e := Entry{Key: keyOf(rng.Intn(1000)), RID: RID{Page: int32(i)}}
				if err := at.Insert(e.Key, e.RID); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(6))
				for i := 2000; i < 30000; i++ {
					j := rng.Intn(len(live))
					if err := at.Delete(live[j].Key, live[j].RID); err != nil {
						t.Error(err)
						return
					}
					live[j] = Entry{Key: keyOf(rng.Intn(1000)), RID: RID{Page: int32(i)}}
					if err := at.Insert(live[j].Key, live[j].RID); err != nil {
						t.Error(err)
						return
					}
					// Every other round inserts once more, so the tree
					// grows and splits as well as compacts.
					if i%2 == 0 {
						e := Entry{Key: keyOf(rng.Intn(1000)), RID: RID{Page: int32(i), Slot: 1}}
						if err := at.Insert(e.Key, e.RID); err != nil {
							t.Error(err)
							return
						}
						live = append(live, e)
					}
				}
			}()
			type held struct{ key, want datum.Row }
			var retained []held
			for round := 0; round < 400; round++ {
				lo := rng.Intn(200)
				lob, hib := Include(intRow(int64(lo))), Include(intRow(int64(lo+rng.Intn(8))))
				it := at.Search(lob, hib)
				if round%2 == 1 {
					// Search again into the iterator just closed.
					it.Close()
					it = at.Search(lob, hib)
				}
				for _, e := range drain(it) {
					retained = append(retained, held{e.Key, e.Key.Clone()})
				}
				it.Close()
			}
			wg.Wait()
			if len(retained) == 0 {
				t.Fatal("no keys retained")
			}
			for _, h := range retained {
				if !datum.RowsEqual(h.key, h.want) {
					t.Fatalf("retained key changed under concurrent writes: %v, was %v", h.key, h.want)
				}
			}
		})
	}
}

// checkBTree verifies the structure of bt against model, its entries
// in (key, RID) order: every leaf at one depth, non-empty unless it is
// the root, its entries inside the separators that bound it, the leaf
// chain linked both ways in key order, and the entries the model's.
func checkBTree(t *testing.T, bt *btree, model []Entry) {
	t.Helper()
	if int(bt.size) != len(model) {
		t.Fatalf("size %d, model %d", bt.size, len(model))
	}
	if bt.root == nil {
		if bt.first != nil || len(model) != 0 {
			t.Fatalf("no root, but first leaf %p and %d model entries", bt.first, len(model))
		}
		return
	}
	var leaves []*btnode
	var got []Entry
	leafDepth := -1
	var walk func(n *btnode, depth int, lo, hi *Entry)
	walk = func(n *btnode, depth int, lo, hi *Entry) {
		if !n.leaf {
			if len(n.children) != len(n.keys)+1 || len(n.rids) != len(n.keys) {
				t.Fatalf("interior node with %d children, %d keys, %d rids", len(n.children), len(n.keys), len(n.rids))
			}
			for i, c := range n.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = &Entry{n.keys[i-1], n.rids[i-1]}
				}
				if i < len(n.keys) {
					chi = &Entry{n.keys[i], n.rids[i]}
				}
				walk(c, depth+1, clo, chi)
			}
			return
		}
		if leafDepth < 0 {
			leafDepth = depth
		} else if depth != leafDepth {
			t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
		}
		if len(n.slots) == 0 && n != bt.root {
			t.Fatal("empty leaf left in the tree")
		}
		if len(n.slots) > bt.order || len(n.rids) != len(n.slots) {
			t.Fatalf("leaf with %d slots, %d rids, order %d", len(n.slots), len(n.rids), bt.order)
		}
		for i := range n.slots {
			e := Entry{bt.key(n, i), n.rids[i]}
			if (lo != nil && cmpEntry(e.Key, e.RID, lo.Key, lo.RID) < 0) || (hi != nil && cmpEntry(e.Key, e.RID, hi.Key, hi.RID) >= 0) {
				t.Fatalf("entry %v/%v outside its separators", e.Key, e.RID)
			}
			got = append(got, e)
		}
		leaves = append(leaves, n)
	}
	walk(bt.root, 0, nil, nil)
	if bt.first != leaves[0] || leaves[0].prev != nil || leaves[len(leaves)-1].next != nil {
		t.Fatal("leaf chain ends wrong")
	}
	for i := 1; i < len(leaves); i++ {
		if leaves[i-1].next != leaves[i] || leaves[i].prev != leaves[i-1] {
			t.Fatalf("leaf chain broken at leaf %d", i)
		}
	}
	if !sameEntries(got, model) {
		t.Fatalf("tree holds %d entries, model %d, or they differ", len(got), len(model))
	}
}

// FuzzBTree drives a B-tree with random inserts, deletes, searches and
// searches after a part-read one was closed (which recycle its
// iterator) and checks every answer, and the tree's structure after
// every step, against a sorted-slice model. The first byte picks the
// tree: one or two key columns, unique or not, and order 64 or 4 (so
// short inputs still build deep trees); every following three bytes
// are one operation. Keys come from a small domain with NULLs, so
// duplicates are common; the keys searches return are kept and must
// not change. Inputs past 400 operations are cut: every step checks
// the whole tree, and a short run keeps minimizing a new input fast.
func FuzzBTree(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []byte{0, 1, 2, 3, 4, 5, 6, 7} {
		for _, n := range []int{0, 30, 300, 1200} {
			seed := make([]byte, 1+n)
			rng.Read(seed)
			seed[0] = cfg
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		ops = ops[:min(len(ops), 1+3*400)]
		width, unique := 1+int(ops[0]&1), ops[0]&2 != 0
		at, err := BTreeMethod{}.New([]datum.TypeID{datum.TInt, datum.TString}[:width], unique, &IOStats{})
		if err != nil {
			t.Fatal(err)
		}
		bt := at.(*btree)
		if ops[0]&4 != 0 {
			bt.order = 4
		}
		keyOf := func(a, b byte, n int) datum.Row {
			row := datum.Row{datum.Null}
			if a%9 != 0 {
				row[0] = datum.NewInt(int64(a % 17))
			}
			if n == 2 {
				row = append(row, datum.Null)
				if b%5 != 0 {
					row[1] = datum.NewString(string(rune('a' + b%4)))
				}
			}
			return row
		}
		bound := func(a, b byte) Bound {
			if a%7 == 0 {
				return Unbounded
			}
			n := width
			if b&0x40 != 0 {
				n = 1
			}
			return Bound{Key: keyOf(a, b, n), Inclusive: b&0x80 != 0}
		}
		inRange := func(k datum.Row, lo, hi Bound) bool {
			if !lo.Unbounded {
				if c := keyPrefixCompare(k, lo.Key); c < 0 || (c == 0 && !lo.Inclusive) {
					return false
				}
			}
			if !hi.Unbounded {
				if c := keyPrefixCompare(k, hi.Key); c > 0 || (c == 0 && !hi.Inclusive) {
					return false
				}
			}
			return true
		}
		var model []Entry
		type held struct{ key, want datum.Row }
		var retained []held
		for step := 0; len(ops) >= 4; step++ {
			op, a, b := ops[1], ops[2], ops[3]
			ops = ops[3:]
			switch op % 8 {
			case 0, 1, 2, 3:
				e := Entry{Key: keyOf(a, b, width), RID: RID{Page: int32(b), Slot: int32(step)}}
				pos, dup := len(model), false
				for i, m := range model {
					dup = dup || CompareKeys(m.Key, e.Key) == 0
					if pos == len(model) && cmpEntry(m.Key, m.RID, e.Key, e.RID) > 0 {
						pos = i
					}
				}
				err := at.Insert(e.Key, e.RID)
				if unique && dup {
					if err == nil {
						t.Fatalf("step %d: duplicate %v accepted by a unique tree", step, e.Key)
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d: insert %v: %v", step, e.Key, err)
				}
				e.Key[0] = datum.NewInt(-1) // the caller's key is its own again
				e.Key = keyOf(a, b, width)
				model = append(model[:pos], append([]Entry{e}, model[pos:]...)...)
			case 4, 5:
				if len(model) == 0 || b&1 != 0 {
					if err := at.Delete(keyOf(a, b, width), RID{Page: -1}); err == nil {
						t.Fatalf("step %d: deleting a missing entry succeeded", step)
					}
					break
				}
				j := int(a) * len(model) / 256
				if err := at.Delete(model[j].Key, model[j].RID); err != nil {
					t.Fatalf("step %d: delete %v/%v: %v", step, model[j].Key, model[j].RID, err)
				}
				model = append(model[:j], model[j+1:]...)
			default:
				lo, hi := bound(a, b), bound(b, a)
				var want []Entry
				for _, m := range model {
					if inRange(m.Key, lo, hi) {
						want = append(want, m)
					}
				}
				if op%8 == 7 && len(model) > 0 {
					// Leave the iterator the search below may recycle
					// holding other entries and a position past the
					// first: it must start from neither.
					spent := at.Search(Unbounded, Unbounded)
					spent.Next()
					spent.Close()
				}
				it := at.Search(lo, hi)
				got := drain(it)
				it.Close()
				if !sameEntries(got, want) {
					t.Fatalf("step %d: search %v..%v returned %v, want %v", step, lo, hi, got, want)
				}
				if len(got) > 0 {
					retained = append(retained, held{got[0].Key, got[0].Key.Clone()})
				}
			}
			if at.Len() != int64(len(model)) {
				t.Fatalf("step %d: Len %d, model %d", step, at.Len(), len(model))
			}
			checkBTree(t, bt, model)
		}
		for _, h := range retained {
			if !datum.RowsEqual(h.key, h.want) {
				t.Fatalf("a key a search returned changed: %v, was %v", h.key, h.want)
			}
		}
	})
}
