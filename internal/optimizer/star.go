package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/qgm"
)

// Args parameterizes a STAR invocation. Different STARs read different
// fields (a STAR "consists of a name, zero or more parameters, and one
// or more alternative definitions").
type Args struct {
	// Box is the QGM operation being planned (PLAN star).
	Box *qgm.Box
	// Quant is the iterator being accessed (ACCESS star).
	Quant *qgm.Quantifier
	// Preds are the predicates this invocation should apply.
	Preds []expr.Expr
	// Left and Right are alternative plans for each join operand
	// (JOIN star). They, and the slices that hold them, are valid only
	// during the compilation: the join enumerator builds them in
	// scratch memory that the next compilation reuses. An alternative
	// may return them inside new nodes, which the optimizer copies out
	// with the chosen plan, but must not keep them after it returns.
	Left, Right []*plan.Node
	// Plans are candidate plans for GLUE to enforce properties on,
	// valid only during the compilation like Left and Right.
	Plans []*plan.Node
	// ReqOrder is the order GLUE must achieve.
	ReqOrder []plan.SortKey
	// JoinKind carries the requested kind ("" = regular).
	JoinKind string
	// Kept is the pricing hint (nil: build every candidate at once): the
	// candidates of the iterator set being enumerated. A built-in JOIN
	// alternative appends a priced offer to it unless it Dominates the
	// offer, Evaluate the nodes an alternative builds anyway; once every
	// split of the set is priced, only the survivors are built (settle).
	Kept *Candidates
	// keys memoizes a JOIN evaluation's equiKeys.
	keys *joinKeys
	// eq are the equalities GLUE's Plans have applied, leftEq and
	// rightEq those of JOIN's Left and Right (nil: none known).
	eq, leftEq, rightEq *equalities
}

// Candidates are those a STAR evaluation's result is pruned with, in
// evaluation order, priced offers and built nodes alike; eq are the
// equalities their orders compare modulo, and lists the slab settle
// hands out its plan lists from (nil: the heap).
type Candidates struct {
	offers []offer
	eq     *equalities
	lists  *slab[*plan.Node]
}

// Dominates reports whether settling drops a candidate with properties
// p, whose order slots index layout cols, offered after c's: one costs
// no more and has an order satisfying p's modulo c's equalities.
// Comparing modulo equalities is still a preorder, so the skip stays
// sound. A nil c (no pricing hint) dominates nothing.
func (c *Candidates) Dominates(p plan.Props, cols []plan.ColRef) bool {
	if c == nil {
		return false
	}
	for i := range c.offers {
		if c.covers(&c.offers[i], p, cols) {
			return true
		}
	}
	return false
}

// covers reports whether q costs no more than p and has an order
// satisfying p's.
func (c *Candidates) covers(q *offer, p plan.Props, cols []plan.ColRef) bool {
	return q.props.Cost <= p.Cost && c.eq.orderSatisfies(q.props.Order, q.cols, p.Order, cols)
}

// add appends built plans to the candidates (a nil c keeps nothing).
func (c *Candidates) add(plans []*plan.Node) {
	if c != nil {
		for _, n := range plans {
			c.offers = append(c.offers, offer{node: n, props: n.Props, cols: n.Cols})
		}
	}
}

// reset drops c's candidates and sets its equalities to eq.
func (c *Candidates) reset(eq *equalities) {
	clear(c.offers)
	c.offers, c.eq = c.offers[:0], eq
}

// settle keeps, of the candidates, every one that is not dominated and
// builds it: a candidate survives if no other has lower-or-equal cost
// AND an order satisfying the survivor's (interesting orders keep more
// expensive but usefully ordered plans alive). Orders compare through
// each candidate's own layout modulo eq, the equalities the set's plans
// have all applied: an order on a.k and one on b.k are one interesting
// order once a.k = b.k is applied. The survivors come out in evaluation
// order, and c is left empty.
//
// Domination is transitive (costs compare, reduced order prefixes nest,
// ties break on position), so dropping a candidate that an earlier one
// dominates changes no survivor: a pricing alternative may leave such a
// candidate unoffered (Dominates).
func (c *Candidates) settle(ctx *Ctx) ([]*plan.Node, error) {
	out := c.lists.alloc(len(c.offers))[:0]
next:
	for i := range c.offers {
		p := &c.offers[i]
		for j := range c.offers {
			q := &c.offers[j]
			// Tie-break deterministically on position to avoid mutual
			// elimination of identical plans.
			if j != i && c.covers(q, p.props, p.cols) && (q.props.Cost < p.props.Cost || j < i) {
				continue next
			}
		}
		n, err := build(ctx, p)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	c.reset(c.eq)
	return out, nil
}

// Alternative is one definition of a STAR: an optional applicability
// condition (the paper's attached IF), a rank for pruning, and a body
// producing candidate plans (possibly by evaluating other STARs through
// the Ctx).
type Alternative struct {
	Name string
	// Condition gates the alternative; nil means always applicable.
	Condition func(ctx *Ctx, a Args) bool
	// Rank orders and prunes alternatives: those exceeding the
	// generator's MaxRank are skipped.
	Rank int
	// Build produces candidate plans.
	Build func(ctx *Ctx, a Args) ([]*plan.Node, error)
	// Price, when set, tells what Build would yield without building
	// it: its cheapest plan's properties, or false for no plan.
	Price func(ctx *Ctx, a Args) (plan.Props, bool)
}

// STAR is a strategy alternative rule: a named nonterminal of the plan
// grammar with one or more alternative definitions.
type STAR struct {
	Name         string
	Alternatives []*Alternative
}

// SearchStrategy orders alternative evaluation. It is deliberately
// separate from both the rules and the rule evaluator ("the search
// strategy can be changed without affecting the rule evaluator or the
// STARs").
type SearchStrategy interface {
	Order(alts []*Alternative) []*Alternative
}

// DeclaredOrder evaluates alternatives in declaration order (the
// default depth-first expansion).
type DeclaredOrder struct{}

// Order implements SearchStrategy.
func (DeclaredOrder) Order(alts []*Alternative) []*Alternative { return alts }

// RankOrder evaluates lower-rank (preferred) alternatives first — the
// prioritized-queue mechanism of section 6.
type RankOrder struct{}

// Order implements SearchStrategy.
func (RankOrder) Order(alts []*Alternative) []*Alternative {
	out := append([]*Alternative(nil), alts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Generator is the rule-driven plan generator: "(1) a general-purpose
// STAR evaluator, (2) a search strategy that chooses the next STAR to
// evaluate, and (3) an array of STARs", each replaceable independently.
type Generator struct {
	stars map[string]*STAR
	// MaxRank prunes alternatives whose rank exceeds it (0 = no limit).
	MaxRank int
	// Strategy orders alternative evaluation.
	Strategy SearchStrategy
	// generation counts STAR-array mutations; plan caches fold it into
	// their settings fingerprint so plans chosen under an earlier STAR
	// array are never reused after a DBC adds or removes alternatives.
	generation atomic.Int64
}

// Generation reports how many times the STAR array has been mutated.
func (g *Generator) Generation() int64 { return g.generation.Load() }

// NewGenerator returns a generator with the given STAR array.
func NewGenerator(stars []*STAR) *Generator {
	g := &Generator{stars: map[string]*STAR{}, Strategy: DeclaredOrder{}}
	for _, s := range stars {
		g.stars[s.Name] = s
	}
	return g
}

// AddAlternative appends an alternative to an existing STAR (or creates
// the STAR) — the DBC extension hook: "the optimizer designer [can]
// add, change, or delete rules in the STAR array without affecting the
// code for the search strategy or the rule evaluator".
func (g *Generator) AddAlternative(star string, alt *Alternative) {
	s := g.stars[star]
	if s == nil {
		s = &STAR{Name: star}
		g.stars[star] = s
	}
	s.Alternatives = append(s.Alternatives, alt)
	g.generation.Add(1)
}

// RemoveAlternative deletes a named alternative.
func (g *Generator) RemoveAlternative(star, name string) bool {
	s := g.stars[star]
	if s == nil {
		return false
	}
	for i, a := range s.Alternatives {
		if a.Name == name {
			s.Alternatives = append(s.Alternatives[:i], s.Alternatives[i+1:]...)
			g.generation.Add(1)
			return true
		}
	}
	return false
}

// STARs lists the rule array (for the under-20-rules experiment).
func (g *Generator) STARs() []*STAR {
	var out []*STAR
	for _, s := range g.stars {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CountAlternatives totals rules across all STARs.
func (g *Generator) CountAlternatives() int {
	n := 0
	for _, s := range g.stars {
		n += len(s.Alternatives)
	}
	return n
}

// Ctx is the evaluation context threaded through STAR expansion.
type Ctx struct {
	Opt *Optimizer
	Gen *Generator
}

// Evaluate expands a STAR: each applicable alternative contributes
// candidate plans, "much as is done by a macro processor, until all
// STARs are fully refined to LOLEPOPs".
func (ctx *Ctx) Evaluate(star string, a Args) ([]*plan.Node, error) {
	s := ctx.Gen.stars[star]
	if s == nil {
		return nil, fmt.Errorf("optimizer: unknown STAR %s", star)
	}
	if ctx.Opt != nil {
		// CountStar is nil-safe; the trace is per-compilation state
		// guarded by the optimizer mutex.
		ctx.Opt.trace.CountStar(star)
	}
	var out []*plan.Node
	for _, alt := range ctx.Gen.Strategy.Order(s.Alternatives) {
		if !ctx.applies(alt, a) {
			continue
		}
		plans, err := alt.Build(ctx, a)
		if err != nil {
			return nil, fmt.Errorf("optimizer: STAR %s/%s: %w", star, alt.Name, err)
		}
		if out == nil {
			out = slices.Clip(plans) // no copy of a lone alternative's plans
		} else {
			out = append(out, plans...)
		}
		a.Kept.add(plans)
	}
	return out, nil
}

// applies reports whether an alternative passes rank and condition.
func (ctx *Ctx) applies(alt *Alternative, a Args) bool {
	return (ctx.Gen.MaxRank <= 0 || alt.Rank <= ctx.Gen.MaxRank) &&
		(alt.Condition == nil || alt.Condition(ctx, a))
}

// Price tells, building nothing, the properties of the cheapest plan
// Evaluate would yield; ok is false when it yields none or an
// applicable alternative has no Price.
func (ctx *Ctx) Price(star string, a Args) (best plan.Props, ok bool) {
	s := ctx.Gen.stars[star]
	if s == nil {
		return best, false
	}
	for _, alt := range ctx.Gen.Strategy.Order(s.Alternatives) {
		if !ctx.applies(alt, a) {
			continue
		}
		if alt.Price == nil {
			return plan.Props{}, false
		}
		if p, found := alt.Price(ctx, a); found && (!ok || p.Cost < best.Cost) {
			best, ok = p, true
		}
	}
	return best, ok
}

// cheapest returns the lowest-cost plan of a set.
func cheapest(plans []*plan.Node) *plan.Node {
	var best *plan.Node
	for _, p := range plans {
		if best == nil || p.Props.Cost < best.Props.Cost {
			best = p
		}
	}
	return best
}

// cheapestWithOrder returns the lowest-cost plan satisfying an order
// modulo eq, the equalities the plans have applied, or nil. req's
// slots index each plan's layout.
func cheapestWithOrder(plans []*plan.Node, req []plan.SortKey, eq *equalities) *plan.Node {
	var best *plan.Node
	for _, p := range plans {
		if !eq.orderSatisfies(p.Props.Order, p.Cols, req, p.Cols) {
			continue
		}
		if best == nil || p.Props.Cost < best.Props.Cost {
			best = p
		}
	}
	return best
}
