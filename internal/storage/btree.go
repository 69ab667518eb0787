package storage

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/datum"
)

// BTreeMethod is the built-in ordered access method: a B+tree over
// composite keys with duplicate support (entries are ordered by key,
// then RID). It supports equality, ranges, and ordered scans, so the
// optimizer may use it both for sargable predicates and to satisfy
// interesting orders (merge join, ORDER BY).
type BTreeMethod struct{}

// Name implements AccessMethod.
func (BTreeMethod) Name() string { return "BTREE" }

// Caps implements AccessMethod.
func (BTreeMethod) Caps() AccessMethodCaps {
	return AccessMethodCaps{Ordered: true, Equality: true, Range: true}
}

// New implements AccessMethod.
func (BTreeMethod) New(keyTypes []datum.TypeID, unique bool, stats *IOStats) (Attachment, error) {
	if len(keyTypes) == 0 {
		return nil, fmt.Errorf("storage: btree needs at least one key column")
	}
	return &btree{order: 64, width: len(keyTypes), unique: unique, stats: stats}, nil
}

// btree is a B+tree. Interior nodes hold separator keys; leaves hold
// entries and are chained both ways for range scans and for unlinking
// an emptied leaf. The order is the maximum number of children
// (interior) or entries (leaf).
type btree struct {
	mu     sync.RWMutex
	order  int
	width  int // key columns per entry
	unique bool
	root   *btnode
	first  *btnode // leftmost leaf
	size   int64
	stats  *IOStats
}

// btnode is an interior node or a leaf. A leaf stores its keys flat:
// cells is append-only, width values per entry; slots holds each
// entry's offset into cells in entry order, and rids is parallel to
// slots. A cell is never written once appended, so the keys a search
// handed out stay as they were: a delete leaves its cells behind as
// garbage, and a split or a compaction copies the live cells into a
// fresh array instead of reusing the old one. Inserting shifts only
// slots and rids.
type btnode struct {
	leaf  bool
	cells []datum.Value // leaf only
	slots []int32       // leaf only
	keys  []datum.Row   // interior only: cloned separators
	rids  []RID         // entries (leaf) or separators (interior); in
	// interior nodes the RID is part of the separator so that duplicate
	// keys spanning leaves remain findable from their leftmost position.
	children   []*btnode // interior only: len(keys)+1
	prev, next *btnode   // leaf chain
}

// minRID sorts before every stored RID: a search for (key, minRID)
// finds the first entry of key.
var minRID = RID{Page: -1 << 30}

// key returns the key of entry i of leaf n, capped so that an append
// to it cannot reach the next entry's cells.
func (t *btree) key(n *btnode, i int) datum.Row {
	o := int(n.slots[i])
	return n.cells[o : o+t.width : o+t.width]
}

// cmpEntry orders (key, rid) pairs: key order first, RID as tiebreak so
// duplicates have a stable total order.
func cmpEntry(aKey datum.Row, aRID RID, bKey datum.Row, bRID RID) int {
	if c := CompareKeys(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aRID.Less(bRID):
		return -1
	case bRID.Less(aRID):
		return 1
	}
	return 0
}

// leafFind returns the index of the first entry in leaf n >= (key, rid).
func (t *btree) leafFind(n *btnode, key datum.Row, rid RID) int {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(t.key(n, mid), n.rids[mid], key, rid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child index to descend into for (key, rid).
// Separators carry the minimum (key, rid) of their right subtree, so
// comparing the full entry identity keeps duplicates findable from the
// leftmost leaf when searching with a minimal RID.
func (n *btnode) childFor(key datum.Row, rid RID) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(n.keys[mid], n.rids[mid], key, rid) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *btree) Insert(key datum.Row, rid RID) error {
	if len(key) != t.width {
		return fmt.Errorf("storage: btree key %v has %d columns, want %d", key, len(key), t.width)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		leaf := &btnode{leaf: true}
		t.root, t.first = leaf, leaf
	}
	if t.unique {
		leaf, i := t.search(key, minRID)
		if i == len(leaf.slots) {
			leaf, i = leaf.next, 0
		}
		if leaf != nil && i < len(leaf.slots) && CompareKeys(t.key(leaf, i), key) == 0 {
			return fmt.Errorf("storage: duplicate key %v in unique index", key)
		}
	}
	split, sepKey, sepRID, right := t.insert(t.root, key, rid)
	if split {
		newRoot := &btnode{
			keys:     []datum.Row{sepKey},
			rids:     []RID{sepRID},
			children: []*btnode{t.root, right},
		}
		t.root = newRoot
	}
	t.size++
	return nil
}

// insert descends to a leaf; on overflow it splits and propagates the
// separator upward. Returns (split, separatorKey, separatorRID, rightNode).
func (t *btree) insert(n *btnode, key datum.Row, rid RID) (bool, datum.Row, RID, *btnode) {
	t.stats.ReadIndex()
	if n.leaf {
		i := t.leafFind(n, key, rid)
		if i == t.order && n.next == nil {
			// Past the end of a full rightmost leaf (an ascending
			// load): the leaf stays full and the entry opens a new one.
			right := &btnode{leaf: true, prev: n}
			t.put(right, 0, key, rid)
			n.next = right
			return true, key.Clone(), rid, right
		}
		t.put(n, i, key, rid)
		if len(n.slots) <= t.order {
			return false, nil, RID{}, nil
		}
		// Split leaf: each half gets exactly sized arrays of its own.
		mid := len(n.slots) / 2
		right := &btnode{leaf: true, cells: n.cells, prev: n, next: n.next,
			slots: slices.Clone(n.slots[mid:]), rids: slices.Clone(n.rids[mid:])}
		if n.next != nil {
			n.next.prev = right
		}
		n.slots, n.rids, n.next = slices.Clone(n.slots[:mid]), slices.Clone(n.rids[:mid]), right
		t.pack(n, 0)
		t.pack(right, 0)
		return true, t.key(right, 0).Clone(), right.rids[0], right
	}
	ci := n.childFor(key, rid)
	split, sepKey, sepRID, right := t.insert(n.children[ci], key, rid)
	if !split {
		return false, nil, RID{}, nil
	}
	n.keys = slices.Insert(n.keys, ci, sepKey)
	n.rids = slices.Insert(n.rids, ci, sepRID)
	n.children = slices.Insert(n.children, ci+1, right)
	if len(n.children) <= t.order {
		return false, nil, RID{}, nil
	}
	// Split interior: the middle separator moves up, and each half
	// gets exactly sized arrays of its own.
	midKey := len(n.keys) / 2
	sk, sr := n.keys[midKey], n.rids[midKey]
	rn := &btnode{
		keys:     slices.Clone(n.keys[midKey+1:]),
		rids:     slices.Clone(n.rids[midKey+1:]),
		children: slices.Clone(n.children[midKey+1:]),
	}
	n.keys = slices.Clone(n.keys[:midKey])
	n.rids = slices.Clone(n.rids[:midKey])
	n.children = slices.Clone(n.children[:midKey+1])
	return true, sk, sr, rn
}

// put inserts (key, rid) at position i of leaf n. Its cells are
// appended; when the cell array is full and more than half of it is
// garbage, the live cells move to a fresh array first.
func (t *btree) put(n *btnode, i int, key datum.Row, rid RID) {
	if live := len(n.slots) * t.width; len(n.cells)+t.width > cap(n.cells) && len(n.cells) > 2*live {
		t.pack(n, live+t.width)
	}
	n.slots = slices.Insert(n.slots, i, int32(len(n.cells)))
	n.rids = slices.Insert(n.rids, i, rid)
	n.cells = append(n.cells, key...)
}

// pack copies the live cells of leaf n, in entry order, into a fresh
// array with room for extra more, and points the slots at them. The
// old array is left as it is, for the keys searches handed out.
func (t *btree) pack(n *btnode, extra int) {
	cells := make([]datum.Value, 0, len(n.slots)*t.width+extra)
	for i, o := range n.slots {
		cells = append(cells, n.cells[o:int(o)+t.width]...)
		n.slots[i] = int32(i * t.width)
	}
	n.cells = cells
}

// search descends to the leaf that would contain (key, rid) and returns
// the leaf and the position of the first entry >= (key, rid). The
// position may equal the leaf's length: every entry of the leaf is
// smaller, and the first one >= (key, rid), if any, opens the next leaf.
func (t *btree) search(key datum.Row, rid RID) (*btnode, int) {
	n := t.root
	if n == nil {
		return nil, 0
	}
	for !n.leaf {
		t.stats.ReadIndex()
		n = n.children[n.childFor(key, rid)]
	}
	t.stats.ReadIndex()
	return n, t.leafFind(n, key, rid)
}

func (t *btree) Delete(key datum.Row, rid RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return fmt.Errorf("storage: btree delete: empty tree")
	}
	found, emptied := t.delete(t.root, key, rid)
	if !found {
		return fmt.Errorf("storage: btree delete: entry not found")
	}
	t.size--
	if emptied {
		t.root, t.first = nil, nil
	}
	for t.root != nil && !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return nil
}

// delete removes (key, rid) from the subtree at n and reports whether
// it was there and whether n is now empty. A leaf that loses its last
// entry leaves the leaf chain, and an emptied node leaves its parent,
// so a scan never walks an empty leaf and a sliding window of keys
// keeps a bounded tree.
func (t *btree) delete(n *btnode, key datum.Row, rid RID) (found, emptied bool) {
	t.stats.ReadIndex()
	if !n.leaf {
		ci := n.childFor(key, rid)
		if found, emptied = t.delete(n.children[ci], key, rid); !emptied {
			return found, false
		}
		// The separator bounding the gone child goes with it: the one
		// below it, or above it for the first child.
		n.children = slices.Delete(n.children, ci, ci+1)
		if k := max(ci-1, 0); k < len(n.keys) {
			n.keys = slices.Delete(n.keys, k, k+1)
			n.rids = slices.Delete(n.rids, k, k+1)
		}
		return true, len(n.children) == 0
	}
	i := t.leafFind(n, key, rid)
	if i == len(n.slots) || cmpEntry(t.key(n, i), n.rids[i], key, rid) != 0 {
		return false, false
	}
	n.slots = slices.Delete(n.slots, i, i+1)
	n.rids = slices.Delete(n.rids, i, i+1)
	if len(n.slots) > 0 {
		return true, false
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.first = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	return true, true
}

func (t *btree) Search(lo, hi Bound) EntryIterator {
	return searchWith(t.fill, lo, hi)
}

// fill appends the entries in [lo, hi] to out and returns it.
func (t *btree) fill(lo, hi Bound, out []Entry) []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaf *btnode
	var i int
	switch {
	case t.root == nil:
		return out
	case lo.Unbounded:
		leaf, i = t.first, 0
		t.stats.ReadIndex()
	default:
		leaf, i = t.search(lo.Key, minRID)
		// Skip entries equal to lo.Key if the bound is exclusive.
		if !lo.Inclusive {
			for leaf != nil {
				if i >= len(leaf.slots) {
					leaf, i = leaf.next, 0
					continue
				}
				if keyPrefixCompare(t.key(leaf, i), lo.Key) > 0 {
					break
				}
				i++
			}
		}
	}
	// Materialize the matching range while the tree lock is held: leaf
	// pointers captured here would go stale under a concurrent insert's
	// node split, and with MVCC there is no statement-level lock keeping
	// index scans and DML apart. The slice is a consistent
	// point-in-time image of the range; visibility filtering happens
	// above this layer.
	for leaf != nil {
		if i >= len(leaf.slots) {
			leaf, i = leaf.next, 0
			if leaf != nil {
				t.stats.ReadIndex()
			}
			continue
		}
		key, rid := t.key(leaf, i), leaf.rids[i]
		i++
		if !hi.Unbounded {
			c := keyPrefixCompare(key, hi.Key)
			if c > 0 || (c == 0 && !hi.Inclusive) {
				break
			}
		}
		out = append(out, Entry{Key: key, RID: rid})
	}
	return out
}

// keyPrefixCompare compares an entry key against a (possibly shorter)
// search key prefix: only the prefix columns participate, so a search
// on the first column of a composite index works naturally.
func keyPrefixCompare(entryKey, searchKey datum.Row) int {
	n := len(searchKey)
	if len(entryKey) < n {
		n = len(entryKey)
	}
	for i := 0; i < n; i++ {
		if c := datum.SortCompare(entryKey[i], searchKey[i]); c != 0 {
			return c
		}
	}
	return 0
}

func (t *btree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}
