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
	qidBit := map[int]uint{}
	for i, q := range quants {
		qidBit[q.QID] = uint(i)
	}

	// predMask computes the local iterator bits a predicate references;
	// foreign (correlation) references contribute no bits.
	predMask := func(p expr.Expr) uint32 {
		var m uint32
		for qid := range expr.QIDs(p) {
			if b, ok := qidBit[qid]; ok {
				m |= 1 << b
			}
		}
		return m
	}
	type predInfo struct {
		e expr.Expr
		m uint32
	}
	var preds []predInfo
	var eqs setEqualities
	for _, p := range joinPreds {
		m := predMask(p)
		preds = append(preds, predInfo{p, m})
		eqs.add(p, m)
	}

	best := make(map[uint32][]*plan.Node)

	// kept holds a set's candidates until every split of it is priced,
	// then builds the survivors; GLUE sorts an input at most once per
	// key list (Args.sorts).
	kept := o.candidates()
	defer o.release(kept)
	var keys joinKeys
	sorts := sortMemo{}

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
		best[1<<uint32(i)] = plans
	}

	if n == 1 {
		return best[1], nil
	}

	full := uint32(1<<uint32(n)) - 1

	// newPreds lists predicates first applicable at exactly this
	// combination (covered by the union, by neither side alone).
	newPreds := func(s1, s2 uint32) []expr.Expr {
		var out []expr.Expr
		s := s1 | s2
		for _, pi := range preds {
			if pi.m != 0 && pi.m&^s == 0 && pi.m&^s1 != 0 && pi.m&^s2 != 0 {
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
		l, r := best[s1], best[s2]
		if len(l) == 0 || len(r) == 0 {
			return nil
		}
		a := Args{Left: l, Right: r, Preds: np, Kept: kept, keys: &keys,
			leftEq: eqs.of(s1), rightEq: eqs.of(s2), sorts: sorts}
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
				if pass == 1 && (o.AllowCartesian || len(best[s]) > 0) {
					break
				}
				cart := o.AllowCartesian || pass == 1
				kept.eq = eqs.of(s)
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
				best[s] = plans
			}
		}
	}
	if len(best[full]) == 0 {
		return nil, fmt.Errorf("optimizer: enumerator found no plan for the full iterator set")
	}
	return best[full], nil
}

// candidates reuses the Candidates of a finished enumeration, so that
// offer buffers and layout maps are allocated once per optimizer.
func (o *Optimizer) candidates() *Candidates {
	if n := len(o.spare); n > 0 {
		c := o.spare[n-1]
		o.spare = o.spare[:n-1]
		return c
	}
	return &Candidates{layouts: map[layoutKey]*plan.Node{}}
}

// release empties c for candidates to reuse.
func (o *Optimizer) release(c *Candidates) {
	c.reset(nil)
	clear(c.layouts)
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

// setEqualities memoizes the equalities of each iterator set of one
// enumeration.
type setEqualities struct {
	cols  []plan.ColRef
	edges []eqEdge
	memo  map[uint32]*equalities
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
	if len(se.edges) == 0 {
		return nil
	}
	if e, ok := se.memo[s]; ok {
		return e
	}
	var e *equalities
	for _, ed := range se.edges {
		if ed.m&^s != 0 {
			continue
		}
		if e == nil {
			e = &equalities{cols: se.cols, rep: make([]int, len(se.cols))}
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
	if se.memo == nil {
		se.memo = map[uint32]*equalities{}
	}
	se.memo[s] = e
	return e
}

// find is the union-find root of cols[i] while of builds e.
func (e *equalities) find(i int) int {
	for e.rep[i] != i {
		i = e.rep[i]
	}
	return i
}
