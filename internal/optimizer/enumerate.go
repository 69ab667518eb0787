package optimizer

import (
	"fmt"
	"math/bits"

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
	for _, p := range joinPreds {
		preds = append(preds, predInfo{p, predMask(p)})
	}

	best := make(map[uint32][]*plan.Node)

	// Single-iterator sets: access path selection via the ACCESS STAR.
	for i, q := range quants {
		plans, err := ctx.Evaluate("ACCESS", Args{Quant: q, Preds: scanPreds[q.QID]})
		if err != nil {
			return nil, err
		}
		if len(plans) == 0 {
			return nil, fmt.Errorf("optimizer: no access plan for iterator %s", q.Name)
		}
		best[1<<uint32(i)] = prunePlans(plans)
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

	// JOIN prices candidates against the set's kept plans (Args.Kept).
	var kept Candidates
	var keys joinKeys
	join := func(s1, s2 uint32) error {
		l, r := best[s1], best[s2]
		if len(l) == 0 || len(r) == 0 {
			return nil
		}
		s := s1 | s2
		kept.Plans = best[s]
		a := Args{Left: l, Right: r, Preds: newPreds(s1, s2), Kept: &kept, keys: &keys}
		if _, err := ctx.Evaluate("JOIN", a); err != nil {
			return err
		}
		best[s] = prunePlans(kept.Plans)
		return nil
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
					if err := join(sub, rest); err != nil {
						return nil, err
					}
					if err := join(rest, sub); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if len(best[full]) == 0 {
		return nil, fmt.Errorf("optimizer: enumerator found no plan for the full iterator set")
	}
	return best[full], nil
}
