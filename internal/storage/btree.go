package storage

import (
	"fmt"
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
	return &btree{order: 64, unique: unique, stats: stats}, nil
}

// btree is a B+tree. Interior nodes hold separator keys; leaves hold
// entries and are chained for range scans. The order is the maximum
// number of children (interior) or entries (leaf).
type btree struct {
	mu     sync.RWMutex
	order  int
	unique bool
	root   *btnode
	first  *btnode // leftmost leaf
	size   int64
	stats  *IOStats
}

type btnode struct {
	leaf bool
	keys []datum.Row // separators (interior) or entry keys (leaf)
	rids []RID       // parallel to keys; in interior nodes the RID
	// is part of the separator so that duplicate keys spanning leaves
	// remain findable from their leftmost position.
	children []*btnode // interior only: len(keys)+1
	next     *btnode   // leaf chain
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

// leafFind returns the index of the first entry in the leaf >= (key, rid).
func (n *btnode) leafFind(key datum.Row, rid RID) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(n.keys[mid], n.rids[mid], key, rid) < 0 {
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
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		leaf := &btnode{leaf: true}
		t.root, t.first = leaf, leaf
	}
	if t.unique {
		leaf, i := t.search(key, RID{Page: -1 << 30, Slot: 0})
		if leaf != nil && i == len(leaf.keys) {
			leaf, i = leaf.next, 0
		}
		if leaf != nil && i < len(leaf.keys) && CompareKeys(leaf.keys[i], key) == 0 {
			return fmt.Errorf("storage: duplicate key %v in unique index", key)
		}
	}
	split, sepKey, sepRID, right := t.insert(t.root, key.Clone(), rid)
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
		i := n.leafFind(key, rid)
		n.keys = append(n.keys, nil)
		n.rids = append(n.rids, RID{})
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.rids[i+1:], n.rids[i:])
		n.keys[i] = key
		n.rids[i] = rid
		if len(n.keys) <= t.order {
			return false, nil, RID{}, nil
		}
		// Split leaf.
		mid := len(n.keys) / 2
		right := &btnode{
			leaf: true,
			keys: append([]datum.Row(nil), n.keys[mid:]...),
			rids: append([]RID(nil), n.rids[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.rids = n.rids[:mid:mid]
		n.next = right
		return true, right.keys[0], right.rids[0], right
	}
	ci := n.childFor(key, rid)
	split, sepKey, sepRID, right := t.insert(n.children[ci], key, rid)
	if !split {
		return false, nil, RID{}, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sepKey
	n.rids = append(n.rids, RID{})
	copy(n.rids[ci+1:], n.rids[ci:])
	n.rids[ci] = sepRID
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= t.order {
		return false, nil, RID{}, nil
	}
	// Split interior: the middle separator moves up.
	midKey := len(n.keys) / 2
	sk, sr := n.keys[midKey], n.rids[midKey]
	rn := &btnode{
		keys:     append([]datum.Row(nil), n.keys[midKey+1:]...),
		rids:     append([]RID(nil), n.rids[midKey+1:]...),
		children: append([]*btnode(nil), n.children[midKey+1:]...),
	}
	n.keys = n.keys[:midKey:midKey]
	n.rids = n.rids[:midKey:midKey]
	n.children = n.children[: midKey+1 : midKey+1]
	return true, sk, sr, rn
}

// search descends to the leaf that would contain (key, rid) and returns
// the leaf and the position of the first entry >= (key, rid). The
// position may equal len(leaf.keys), meaning "continue at next leaf".
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
	i := n.leafFind(key, rid)
	// Duplicates of key may start in an earlier leaf because childFor
	// biases right; back up along the leftmost possible position by
	// re-searching with the minimal RID when i lands at 0.
	return n, i
}

func (t *btree) Delete(key datum.Row, rid RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, i := t.search(key, rid)
	if leaf == nil {
		return fmt.Errorf("storage: btree delete: empty tree")
	}
	// The exact (key, rid) entry may be at i in this leaf or the next
	// (when i == len(keys)).
	for leaf != nil {
		if i < len(leaf.keys) {
			if cmpEntry(leaf.keys[i], leaf.rids[i], key, rid) == 0 {
				leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
				leaf.rids = append(leaf.rids[:i], leaf.rids[i+1:]...)
				t.size--
				// Lazy deletion: underfull leaves are tolerated and
				// reclaimed on rebuild, trading strict occupancy for
				// simplicity (documented substitute for full rebalance).
				return nil
			}
			break
		}
		leaf, i = leaf.next, 0
	}
	return fmt.Errorf("storage: btree delete: entry not found")
}

func (t *btree) Search(lo, hi Bound) EntryIterator {
	return &sliceEntryIterator{from: t, entries: t.fill(lo, hi, nil)}
}

// fill appends the entries in [lo, hi] to out and returns it.
func (t *btree) fill(lo, hi Bound, out []Entry) []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaf *btnode
	var i int
	minRID := RID{Page: -1 << 30}
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
				if i >= len(leaf.keys) {
					leaf, i = leaf.next, 0
					continue
				}
				if keyPrefixCompare(leaf.keys[i], lo.Key) > 0 {
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
		if i >= len(leaf.keys) {
			leaf, i = leaf.next, 0
			if leaf != nil {
				t.stats.ReadIndex()
			}
			continue
		}
		key, rid := leaf.keys[i], leaf.rids[i]
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
