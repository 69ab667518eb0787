package optimizer

import (
	"slices"
	"unsafe"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
)

// scratch is the join enumerator's working memory. The enumerator grows
// plans for progressively larger iterator sets from smaller ones
// (section 6), and of all it builds only the plan chosen for the whole
// box outlives the compilation: the other join nodes, GLUE's SORTs, the
// per-set plan lists, equi-key slots and predicate lists are dead the
// moment the box is planned. They live here, in chunks the Optimizer
// keeps from one compilation to the next (compilations are serialized
// under o.mu), and PlanBox copies the chosen plan out to the heap
// (keep), so the memo, every subplan and the root hold heap nodes only.
//
// OptimizeConfig resets the scratch when it returns: it clears what was
// handed out, so that the scratch pins no expression or table, and drops
// it once it holds more than scratchCap bytes, so that one large join
// does not leave its working set behind.
type scratch struct {
	nodes slab[plan.Node]
	ptrs  slab[*plan.Node] // Inputs and plan lists
	sets  slab[iterSet]
	cols  slab[plan.ColRef]
	types slab[datum.TypeID]
	ints  slab[int]
	keys  slab[plan.SortKey]
	exprs slab[expr.Expr]
	eqs   slab[equalities]
	// sorts holds, by input, the SORTs GLUE built in this compilation:
	// the splits of a set, and the sets that share an input, require the
	// same orders of it again and again.
	sorts map[*plan.Node][]*plan.Node
}

// scratchCap is the most bytes a scratch may hold and still be kept for
// the next compilation. A 6-way join chain plans in about 200 KiB of
// scratch and an 8-way one in 1.1 MiB; a 12-way chain needs about 29
// MiB, and is not typical enough to keep that much memory for.
const scratchCap = 2 << 20

// work returns the optimizer's scratch, allocated at the first join
// enumeration.
func (o *Optimizer) work() *scratch {
	if o.scratch == nil {
		o.scratch = &scratch{sorts: map[*plan.Node][]*plan.Node{}}
	}
	return o.scratch
}

// resetScratch clears the scratch for the next compilation, or drops it
// if it has grown past scratchCap.
func (o *Optimizer) resetScratch() {
	s := o.scratch
	if s == nil {
		return
	}
	if s.size() > scratchCap {
		o.scratch = nil
		return
	}
	s.nodes.reset()
	s.ptrs.reset()
	s.sets.reset()
	s.cols.reset()
	s.types.reset()
	s.ints.reset()
	s.keys.reset()
	s.exprs.reset()
	s.eqs.reset()
	clear(s.sorts)
}

// size is the bytes the scratch's chunks hold.
func (s *scratch) size() int {
	return s.nodes.size() + s.ptrs.size() + s.sets.size() + s.cols.size() + s.types.size() +
		s.ints.size() + s.keys.size() + s.exprs.size() + s.eqs.size()
}

// node returns a zeroed scratch node.
func (s *scratch) node() *plan.Node {
	return &s.nodes.alloc(1)[0]
}

// sort returns a SORT of in on keys, the one GLUE built already if
// there is one.
func (s *scratch) sort(in *plan.Node, keys []plan.SortKey) *plan.Node {
	for _, n := range s.sorts[in] {
		if slices.Equal(n.SortKeys, keys) {
			return n
		}
	}
	n := s.node()
	*n = plan.Node{Op: plan.OpSort, Inputs: s.ptrs.alloc(1), Cols: in.Cols, Types: in.Types,
		SortKeys: keys, Props: costSort(in.Props, keys)}
	n.Inputs[0] = in
	l := s.sorts[in]
	if len(l) == cap(l) {
		l = append(s.ptrs.alloc(2*len(l) + 1)[:0], l...)
	}
	s.sorts[in] = append(l, n)
	return n
}

// one returns a scratch plan list of n alone.
func (s *scratch) one(n *plan.Node) []*plan.Node {
	l := s.ptrs.alloc(1)
	l[0] = n
	return l
}

// keep returns the plan rooted at n with every scratch node reachable
// through Inputs copied to the heap, and every slice that aliases the
// scratch, in such a node or in a heap node above one, copied with it;
// a slice a node shares with its input stays shared. Heap nodes are
// kept in place, and written only where they alias the scratch.
// Nil-safe: without a scratch or a plan there is nothing to copy.
func (s *scratch) keep(n *plan.Node) *plan.Node {
	if s == nil || n == nil {
		return n
	}
	if s.nodes.owns(n) {
		c := *n
		n = &c
		n.Inputs = slices.Clone(n.Inputs)
	} else {
		update(&n.Inputs, s.ptrs.keep(n.Inputs))
	}
	order := n.Props.Order
	for i, in := range n.Inputs {
		cols, types, inOrder := in.Cols, in.Types, in.Props.Order
		k := s.keep(in)
		if k != in {
			n.Inputs[i] = k
		}
		update(&n.Cols, relink(n.Cols, cols, k.Cols))
		update(&n.Types, relink(n.Types, types, k.Types))
		update(&n.Props.Order, relink(n.Props.Order, inOrder, k.Props.Order))
	}
	update(&n.Cols, s.cols.keep(n.Cols))
	update(&n.Types, s.types.keep(n.Types))
	update(&n.Props.Order, s.keys.keep(n.Props.Order))
	update(&n.SortKeys, s.keys.keep(relink(n.SortKeys, order, n.Props.Order)))
	update(&n.EquiLeft, s.ints.keep(n.EquiLeft))
	update(&n.EquiRight, s.ints.keep(n.EquiRight))
	update(&n.Preds, s.exprs.keep(n.Preds))
	return n
}

// relink returns to, the copy of from, if x is from; else x.
func relink[T any](x, from, to []T) []T {
	if same(x, from) {
		return to
	}
	return x
}

// update sets *p to x unless *p is x already.
func update[T any](p *[]T, x []T) {
	if !same(*p, x) {
		*p = x
	}
}

// slab hands out slices of T from chunks it keeps for reuse. A nil slab
// hands out heap slices.
type slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being handed out
	used   int // its elements handed out
}

// minChunk is the length of a slab's first chunk; each further one
// doubles the last.
const minChunk = 32

// alloc returns n zeroed elements, nil for none. The slice's capacity is
// n, so an append to it never reaches the next one.
func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if s == nil {
		return make([]T, n)
	}
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			s.used += n
			return c[s.used-n : s.used : s.used]
		}
	}
	size := minChunk
	if k := len(s.chunks); k > 0 {
		size = 2 * len(s.chunks[k-1])
	}
	s.chunks = append(s.chunks, make([]T, max(n, size)))
	s.used = n
	return s.chunks[s.cur][:n:n]
}

// reset zeroes what the slab handed out, so that it pins nothing, and
// hands it out again.
func (s *slab[T]) reset() {
	for i := range min(s.cur+1, len(s.chunks)) {
		c := s.chunks[i]
		if i == s.cur {
			c = c[:s.used]
		}
		clear(c)
	}
	s.cur, s.used = 0, 0
}

// size is the bytes the slab's chunks hold.
func (s *slab[T]) size() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	var t T
	return n * int(unsafe.Sizeof(t))
}

// owns reports whether p points into one of the slab's chunks. The
// chunks are live, and the Go heap does not move objects, so comparing
// addresses is sound.
func (s *slab[T]) owns(p *T) bool {
	if p == nil {
		return false
	}
	a := uintptr(unsafe.Pointer(p))
	for _, c := range s.chunks {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		if a >= lo && a < lo+uintptr(len(c))*unsafe.Sizeof(*p) {
			return true
		}
	}
	return false
}

// keep returns x, copied to the heap if its array is the slab's.
func (s *slab[T]) keep(x []T) []T {
	if len(x) == 0 || !s.owns(unsafe.SliceData(x)) {
		return x
	}
	return slices.Clone(x)
}
