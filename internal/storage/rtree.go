package storage

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/datum"
)

// RTreeMethod is the paper's worked access-method extension: "a DBC
// could define a new type of access method, e.g., an R-tree [GUTT84].
// Corona must recognize when this access method is useful for a query
// and when to invoke it." It indexes points (rows of numeric key
// columns) and answers multi-dimensional window queries, which the
// optimizer routes to it when every key column is range-constrained.
//
// It is not registered by default; the spatial example and tests
// register it through the DBC extension API, proving the attachment
// architecture accepts new methods without core changes.
type RTreeMethod struct{}

// Name implements AccessMethod.
func (RTreeMethod) Name() string { return "RTREE" }

// Caps implements AccessMethod.
func (RTreeMethod) Caps() AccessMethodCaps {
	return AccessMethodCaps{Equality: true, Spatial: true}
}

// New implements AccessMethod.
func (RTreeMethod) New(keyTypes []datum.TypeID, unique bool, stats *IOStats) (Attachment, error) {
	if unique {
		return nil, fmt.Errorf("storage: rtree does not support unique constraints")
	}
	if len(keyTypes) == 0 {
		return nil, fmt.Errorf("storage: rtree needs at least one key column")
	}
	for _, t := range keyTypes {
		if t != datum.TInt && t != datum.TFloat {
			return nil, fmt.Errorf("storage: rtree key columns must be numeric, got %s", datum.TypeName(t))
		}
	}
	return &rtree{dims: len(keyTypes), maxEntries: 16, stats: stats}, nil
}

// rect is an axis-aligned bounding box in dims dimensions.
type rect struct {
	min, max []float64
}

func pointRect(dims int, key datum.Row) (rect, error) {
	if len(key) != dims {
		return rect{}, fmt.Errorf("storage: rtree key width %d, want %d", len(key), dims)
	}
	pt := make([]float64, dims)
	for i, v := range key {
		if v.IsNull() {
			return rect{}, fmt.Errorf("storage: rtree keys may not be NULL")
		}
		pt[i] = v.Float()
	}
	return rect{min: pt, max: append([]float64(nil), pt...)}, nil
}

func (r rect) contains(o rect) bool {
	for i := range r.min {
		if o.min[i] < r.min[i] || o.max[i] > r.max[i] {
			return false
		}
	}
	return true
}

func (r rect) intersects(o rect) bool {
	for i := range r.min {
		if o.max[i] < r.min[i] || o.min[i] > r.max[i] {
			return false
		}
	}
	return true
}

func (r rect) union(o rect) rect {
	out := rect{min: make([]float64, len(r.min)), max: make([]float64, len(r.max))}
	for i := range r.min {
		out.min[i] = math.Min(r.min[i], o.min[i])
		out.max[i] = math.Max(r.max[i], o.max[i])
	}
	return out
}

func (r rect) area() float64 {
	a := 1.0
	for i := range r.min {
		a *= r.max[i] - r.min[i]
	}
	return a
}

func (r rect) enlargement(o rect) float64 {
	return r.union(o).area() - r.area()
}

type rtEntry struct {
	box   rect
	key   datum.Row // leaf entries only
	rid   RID
	child *rtNode // interior entries only
}

type rtNode struct {
	leaf    bool
	entries []rtEntry
}

func (n *rtNode) mbr() rect {
	box := n.entries[0].box
	for _, e := range n.entries[1:] {
		box = box.union(e.box)
	}
	return box
}

// rtree is an in-memory R-tree with quadratic split.
type rtree struct {
	mu         sync.RWMutex
	dims       int
	maxEntries int
	root       *rtNode
	size       int64
	stats      *IOStats
}

func (t *rtree) Insert(key datum.Row, rid RID) error {
	box, err := pointRect(t.dims, key)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		t.root = &rtNode{leaf: true}
	}
	entry := rtEntry{box: box, key: key.Clone(), rid: rid}
	split := t.insert(t.root, entry)
	if split != nil {
		// Grow the tree: new root with the old root and the split node.
		old := t.root
		t.root = &rtNode{entries: []rtEntry{
			{box: old.mbr(), child: old},
			{box: split.mbr(), child: split},
		}}
	}
	t.size++
	return nil
}

// insert adds an entry beneath n and returns a new sibling when n split.
func (t *rtree) insert(n *rtNode, e rtEntry) *rtNode {
	t.stats.ReadIndex()
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	// Choose the subtree whose MBR needs least enlargement.
	best, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1)
	for i, c := range n.entries {
		enl := c.box.enlargement(e.box)
		if enl < bestEnl || (enl == bestEnl && c.box.area() < bestArea) {
			best, bestEnl, bestArea = i, enl, c.box.area()
		}
	}
	child := n.entries[best].child
	if split := t.insert(child, e); split != nil {
		n.entries[best].box = child.mbr()
		n.entries = append(n.entries, rtEntry{box: split.mbr(), child: split})
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	n.entries[best].box = n.entries[best].box.union(e.box)
	return nil
}

// split performs a quadratic split of an overflowing node, keeping one
// group in n and returning the other as a new node.
func (t *rtree) split(n *rtNode) *rtNode {
	entries := n.entries
	// Pick the two seeds wasting the most area if grouped together.
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].box.union(entries[j].box).area() -
				entries[i].box.area() - entries[j].box.area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := []rtEntry{entries[s1]}
	g2 := []rtEntry{entries[s2]}
	b1, b2 := entries[s1].box, entries[s2].box
	minFill := (t.maxEntries + 1) / 2
	for i, e := range entries {
		if i == s1 || i == s2 {
			continue
		}
		rest := len(entries) - i - 1
		switch {
		case len(g1)+rest+1 <= minFill: // g1 must take the rest
			g1 = append(g1, e)
			b1 = b1.union(e.box)
		case len(g2)+rest+1 <= minFill:
			g2 = append(g2, e)
			b2 = b2.union(e.box)
		case b1.enlargement(e.box) <= b2.enlargement(e.box):
			g1 = append(g1, e)
			b1 = b1.union(e.box)
		default:
			g2 = append(g2, e)
			b2 = b2.union(e.box)
		}
	}
	n.entries = g1
	return &rtNode{leaf: n.leaf, entries: g2}
}

func (t *rtree) Delete(key datum.Row, rid RID) error {
	box, err := pointRect(t.dims, key)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return fmt.Errorf("storage: rtree delete: empty tree")
	}
	if t.delete(t.root, box, rid) {
		t.size--
		return nil
	}
	return fmt.Errorf("storage: rtree delete: entry not found")
}

func (t *rtree) delete(n *rtNode, box rect, rid RID) bool {
	if n.leaf {
		for i, e := range n.entries {
			if e.rid == rid && e.box.contains(box) && box.contains(e.box) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				return true
			}
		}
		return false
	}
	for i := range n.entries {
		if n.entries[i].box.intersects(box) && t.delete(n.entries[i].child, box, rid) {
			if len(n.entries[i].child.entries) > 0 {
				n.entries[i].box = n.entries[i].child.mbr()
			}
			return true
		}
	}
	return false
}

// Search implements a window query: lo.Key and hi.Key are the per-
// dimension minima and maxima. Unbounded sides extend to ±infinity.
// Both bounds are treated as inclusive, matching the optimizer's
// window-predicate extraction; exclusive spatial bounds are re-checked
// by the residual predicate at execution.
func (t *rtree) Search(lo, hi Bound) EntryIterator {
	return searchWith(t.fill, lo, hi)
}

// fill appends the entries in the window [lo, hi] to out and returns it.
func (t *rtree) fill(lo, hi Bound, out []Entry) []Entry {
	win := rect{min: make([]float64, t.dims), max: make([]float64, t.dims)}
	for i := 0; i < t.dims; i++ {
		win.min[i] = math.Inf(-1)
		win.max[i] = math.Inf(1)
	}
	fill := func(b Bound, dst []float64) {
		if b.Unbounded {
			return
		}
		for i, v := range b.Key {
			if i >= t.dims {
				break
			}
			if !v.IsNull() {
				dst[i] = v.Float()
			}
		}
	}
	fill(lo, win.min)
	fill(hi, win.max)

	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root != nil {
		t.collect(t.root, win, &out)
	}
	return out
}

func (t *rtree) collect(n *rtNode, win rect, out *[]Entry) {
	t.stats.ReadIndex()
	for _, e := range n.entries {
		if !win.intersects(e.box) {
			continue
		}
		if n.leaf {
			*out = append(*out, Entry{Key: e.key, RID: e.rid})
		} else {
			t.collect(e.child, win, out)
		}
	}
}

func (t *rtree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}
