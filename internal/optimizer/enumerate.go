package optimizer

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/qgm"
)

// enumerateJoins is the join enumerator of [ONO88]: it "enumerates all
// valid join sequences by iteratively constructing progressively larger
// sets of iterators from two smaller iterator sets, starting from the
// plans generated earlier for sets of a single iterator". For each pair
// it invokes the plan generator's JOIN STAR. Switches control composite
// inners (bushy trees) and Cartesian products, which System R and R*
// always pruned.
func (o *Optimizer) enumerateJoins(ctx *Ctx, quants []*qgm.Quantifier,
	scanPreds map[int][]expr.Expr, joinPreds []expr.Expr) ([]*plan.Node, error) {

	n := len(quants)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: empty iterator set")
	}
	if n > 20 {
		return nil, fmt.Errorf("optimizer: %d-way join exceeds the enumerator's 20-iterator limit", n)
	}
	w := o.work()

	// predMask computes the local iterator bits a predicate references;
	// foreign (correlation) references contribute no bits.
	predMask := func(p expr.Expr) uint32 {
		var m uint32
		expr.Walk(p, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok {
				for i, q := range quants {
					if q.QID == c.QID {
						m |= 1 << uint(i)
					}
				}
			}
			return true
		})
		return m
	}
	type predInfo struct {
		e expr.Expr
		m uint32
	}
	preds := make([]predInfo, len(joinPreds))
	eqs := setEqualities{eqs: &w.eqs, reps: &w.ints}
	for i, p := range joinPreds {
		m := predMask(p)
		preds[i] = predInfo{p, m}
		eqs.add(p, m)
	}

	full := uint32(1<<uint32(n)) - 1
	// sets holds each iterator set's surviving plans and equalities,
	// indexed by its bits.
	sets := w.sets.alloc(int(full) + 1)
	eqOf := func(s uint32) *equalities {
		st := &sets[s]
		if !st.eqDone {
			st.eq, st.eqDone = eqs.of(s), true
		}
		return st.eq
	}

	// kept holds a set's candidates until every split of it is priced,
	// then builds the survivors; GLUE sorts an input at most once per
	// key list (scratch.sort).
	kept := o.candidates()
	defer o.release(kept)
	keys := joinKeys{slots: &w.ints, orders: &w.keys}

	// Single-iterator sets: access path selection via the ACCESS STAR.
	for i, q := range quants {
		if _, err := ctx.Evaluate("ACCESS", Args{Quant: q, Preds: scanPreds[q.QID], Kept: kept}); err != nil {
			return nil, err
		}
		plans, err := kept.settle(ctx)
		if err != nil {
			return nil, err
		}
		if len(plans) == 0 {
			return nil, fmt.Errorf("optimizer: no access plan for iterator %s", q.Name)
		}
		sets[1<<uint32(i)].plans = plans
	}

	if n == 1 {
		return sets[1].plans, nil
	}

	// newPreds lists predicates first applicable at exactly this
	// combination (covered by the union, by neither side alone).
	newPreds := func(s1, s2 uint32) []expr.Expr {
		s := s1 | s2
		applies := func(m uint32) bool { return m != 0 && m&^s == 0 && m&^s1 != 0 && m&^s2 != 0 }
		k := 0
		for _, pi := range preds {
			if applies(pi.m) {
				k++
			}
		}
		out := w.exprs.alloc(k)[:0]
		for _, pi := range preds {
			if applies(pi.m) {
				out = append(out, pi.e)
			}
		}
		return out
	}

	// connected reports whether any join predicate spans the two sides.
	connected := func(s1, s2 uint32) bool {
		for _, pi := range preds {
			if pi.m&s1 != 0 && pi.m&s2 != 0 && pi.m&^(s1|s2) == 0 {
				return true
			}
		}
		return false
	}

	join := func(s1, s2 uint32, np []expr.Expr) error {
		l, r := sets[s1].plans, sets[s2].plans
		if len(l) == 0 || len(r) == 0 {
			return nil
		}
		a := Args{Left: l, Right: r, Preds: np, Kept: kept, keys: &keys,
			leftEq: eqOf(s1), rightEq: eqOf(s2)}
		_, err := ctx.Evaluate("JOIN", a)
		return err
	}

	for size := 2; size <= n; size++ {
		for s := uint32(1); s <= full; s++ {
			if bits.OnesCount32(s) != size {
				continue
			}
			// Pass 1 considers connected splits (plus everything when
			// Cartesian products are enabled); pass 2 is the fallback
			// that keeps disconnected sets plannable.
			for pass := 0; pass < 2; pass++ {
				if pass == 1 && (o.AllowCartesian || len(sets[s].plans) > 0) {
					break
				}
				cart := o.AllowCartesian || pass == 1
				kept.eq = eqOf(s)
				for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
					rest := s &^ sub
					if sub < rest {
						continue // canonical split; both directions joined below
					}
					if !o.AllowBushy && bits.OnesCount32(sub) != 1 && bits.OnesCount32(rest) != 1 {
						continue
					}
					if !cart && !connected(sub, rest) {
						continue
					}
					np := newPreds(sub, rest)
					if err := join(sub, rest, np); err != nil {
						return nil, err
					}
					if err := join(rest, sub, np); err != nil {
						return nil, err
					}
				}
				plans, err := kept.settle(ctx)
				if err != nil {
					return nil, err
				}
				sets[s].plans = plans
			}
		}
	}
	if len(sets[full].plans) == 0 {
		return nil, fmt.Errorf("optimizer: enumerator found no plan for the full iterator set")
	}
	return sets[full].plans, nil
}

// iterSet is the enumerator's state for one iterator set: its surviving
// plans and, once eqDone, its equalities.
type iterSet struct {
	plans  []*plan.Node
	eq     *equalities
	eqDone bool
}

// candidates reuses the Candidates of a finished enumeration, so that
// offer buffers are allocated once per optimizer; their plan lists are
// the scratch's.
func (o *Optimizer) candidates() *Candidates {
	var c *Candidates
	if n := len(o.spare); n > 0 {
		c = o.spare[n-1]
		o.spare = o.spare[:n-1]
	} else {
		c = &Candidates{}
	}
	c.lists = &o.work().ptrs
	return c
}

// release empties c for candidates to reuse.
func (o *Optimizer) release(c *Candidates) {
	c.reset(nil)
	c.lists = nil
	o.spare = append(o.spare, c)
}

// equalities are the classes of columns that an iterator set's applied
// Col = Col join predicates equate: in every row a plan for the set
// produces, the columns of a class hold one value, so an order on one
// of them is an order on each (the applied-predicates property of
// [LOHM88]). A nil *equalities has no classes.
type equalities struct {
	cols []plan.ColRef // the enumeration's equated columns
	rep  []int         // rep[i] indexes the representative of cols[i]'s class
}

// class names column c's class by its representative; a column in no
// class is its own.
func (e *equalities) class(c plan.ColRef) plan.ColRef {
	if e != nil {
		for i, x := range e.cols {
			if x == c {
				return e.cols[e.rep[i]]
			}
		}
	}
	return c
}

// orderSatisfies reports whether order have, whose slots index layout
// hcols, satisfies the required order req, whose slots index rcols,
// modulo e. Each key stands for its column's class; a key whose class
// an earlier key of the same order names is dropped (rows tied on the
// earlier key tie on it too); and what is left of req must be a prefix
// of what is left of have, Desc included. With no equalities, one
// layout and no repeated slot, this is plan.Props.OrderSatisfies.
func (e *equalities) orderSatisfies(have []plan.SortKey, hcols []plan.ColRef, req []plan.SortKey, rcols []plan.ColRef) bool {
	if len(have) == 0 {
		return len(req) == 0
	}
	h := 0
	for i, k := range req {
		c := e.class(rcols[k.Slot])
		if e.names(req[:i], rcols, c) {
			continue
		}
		for h < len(have) && e.names(have[:h], hcols, e.class(hcols[have[h].Slot])) {
			h++
		}
		if h == len(have) || have[h].Desc != k.Desc || e.class(hcols[have[h].Slot]) != c {
			return false
		}
		h++
	}
	return true
}

// names reports whether a key of keys, whose slots index cols, stands
// for class c.
func (e *equalities) names(keys []plan.SortKey, cols []plan.ColRef, c plan.ColRef) bool {
	for _, k := range keys {
		if e.class(cols[k.Slot]) == c {
			return true
		}
	}
	return false
}

// setEqualities derives the equalities of the iterator sets of one
// enumeration, in the slabs eqs and reps (nil: on the heap).
type setEqualities struct {
	cols  []plan.ColRef
	edges []eqEdge
	eqs   *slab[equalities]
	reps  *slab[int]
}

// eqEdge is a Col = Col join predicate between two iterators: the
// indexes of its columns in setEqualities.cols and its iterator bits.
type eqEdge struct {
	l, r int
	m    uint32
}

// add records join predicate p, whose iterator bits are m, if it is a
// Col = Col predicate over two iterators whose columns share a type, so
// that equal values sort alike.
func (se *setEqualities) add(p expr.Expr, m uint32) {
	cmp, ok := p.(*expr.Cmp)
	if !ok || cmp.Op != expr.OpEq || bits.OnesCount32(m) != 2 {
		return
	}
	lc, lok := cmp.L.(*expr.Col)
	rc, rok := cmp.R.(*expr.Col)
	if lok && rok && lc.Typ == rc.Typ {
		se.edges = append(se.edges, eqEdge{se.index(lc), se.index(rc), m})
	}
}

// index returns column c's index in se.cols, adding it if need be.
func (se *setEqualities) index(c *expr.Col) int {
	ref := plan.ColRef{QID: c.QID, Ord: c.Ord}
	if i := slices.Index(se.cols, ref); i >= 0 {
		return i
	}
	se.cols = append(se.cols, ref)
	return len(se.cols) - 1
}

// of returns the equalities of iterator set s: the classes of the
// predicates whose two iterators s holds, which every plan for s has
// applied. They are not the query's classes (impliedEqualities): two
// columns of one iterator that a third one equates are equal only in
// the sets that hold all three.
func (se *setEqualities) of(s uint32) *equalities {
	var e *equalities
	for _, ed := range se.edges {
		if ed.m&^s != 0 {
			continue
		}
		if e == nil {
			e = &se.eqs.alloc(1)[0]
			e.cols, e.rep = se.cols, se.reps.alloc(len(se.cols))
			for i := range e.rep {
				e.rep[i] = i
			}
		}
		e.rep[e.find(ed.l)] = e.find(ed.r)
	}
	if e != nil {
		for i := range e.rep {
			e.rep[i] = e.find(i)
		}
	}
	return e
}

// find is the union-find root of cols[i] while of builds e.
func (e *equalities) find(i int) int {
	for e.rep[i] != i {
		i = e.rep[i]
	}
	return i
}
