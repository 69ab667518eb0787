// Package rewrite implements Starburst's query rewrite phase (section 5
// of the paper, [HASA88]): a rule system transforming one consistent
// QGM into another, equivalent, consistent QGM for better performance.
//
// The three components the paper describes are kept orthogonal:
//
//   - the rewrite rules — condition/action pairs (here Go funcs, as the
//     paper's were C funcs), grouped into rule classes;
//   - the rule engine — forward chaining with sequential, priority, or
//     statistical control strategies and a firing budget that always
//     stops at a consistent QGM;
//   - the search facility — browses the QGM depth-first (top down) or
//     breadth-first, providing the context rules work on.
package rewrite

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/qgm"
)

// Context is handed to rule conditions and actions: the graph being
// rewritten plus helper queries over it.
type Context struct {
	Graph *qgm.Graph
	// used and qids are usedOrdinals' buffers, reused across calls.
	used []bool
	qids []int
}

// SoleRanger returns the unique quantifier ranging over box, or nil if
// the box has zero or multiple rangers. Many rules require sole
// ownership before destructive restructuring.
func (c *Context) SoleRanger(box *qgm.Box) (*qgm.Box, *qgm.Quantifier) {
	rs := c.Graph.RangersOver(box)
	if len(rs) != 1 {
		return nil, nil
	}
	return rs[0].Box, rs[0].Quant
}

// Rule is one rewrite rule: when Condition holds on a box, Action
// transforms the graph. Every rule must complete a transformation —
// turn a consistent QGM into another consistent QGM.
type Rule struct {
	Name string
	// Class groups rules so subsets can be enabled and ordered; the
	// paper's base classes are predicate migration, projection
	// push-down, and operation merging.
	Class string
	// Priority orders rules under the Priority and Statistical control
	// strategies (higher first / more likely).
	Priority int
	// Condition reports whether the rule applies to this box.
	Condition func(ctx *Context, b *qgm.Box) bool
	// Action applies the transformation.
	Action func(ctx *Context, b *qgm.Box) error
}

// Strategy selects how the engine orders candidate rules.
type Strategy int

// Control strategies (section 5: "sequential ... priority ...
// statistical").
const (
	Sequential Strategy = iota
	Priority
	Statistical
)

// SearchOrder selects how the search facility browses QGM boxes.
type SearchOrder int

// Search orders.
const (
	DepthFirst SearchOrder = iota // top down
	BreadthFirst
)

// Options configures one rewrite run.
type Options struct {
	Strategy Strategy
	Search   SearchOrder
	// Budget bounds the number of rule firings; 0 means unlimited.
	// When exhausted, processing stops at a consistent QGM state.
	Budget int
	// Classes restricts execution to the named rule classes; empty
	// means all.
	Classes []string
	// Seed drives the Statistical strategy.
	Seed int64
}

// Engine executes rewrite rules against QGM graphs. A DB owns one
// engine; DBC extensions register additional rules into it.
type Engine struct {
	rules []*Rule
	// generation counts rule-set mutations; plan caches fold it into
	// their settings fingerprint so plans compiled under an earlier
	// rule set are never reused after a DBC registers a new rule.
	generation atomic.Int64
}

// Generation reports how many times the rule set has been mutated.
func (e *Engine) Generation() int64 { return e.generation.Load() }

// NewEngine returns an engine with no rules. Use NewDefaultEngine for
// the base system's rule set.
func NewEngine() *Engine { return &Engine{} }

// NewDefaultEngine returns an engine loaded with the base rules for the
// built-in operations (view/operation merging, subquery-to-join,
// predicate migration, projection push-down, redundant join
// elimination). It panics if a base rule is malformed: that is a
// programming error, not a condition to run without the rule.
func NewDefaultEngine() *Engine {
	e := NewEngine()
	for _, r := range BaseRules() {
		if err := e.Register(r); err != nil {
			panic(fmt.Sprintf("%v: base rule %q", err, r.Name))
		}
	}
	return e
}

// Register adds a rule. Rules registered later run after earlier ones
// under the Sequential strategy.
func (e *Engine) Register(r *Rule) error {
	if r.Name == "" || r.Condition == nil || r.Action == nil {
		return fmt.Errorf("rewrite: rule needs Name, Condition and Action")
	}
	e.rules = append(e.rules, r)
	e.generation.Add(1)
	return nil
}

// Fired describes one rule firing, for EXPLAIN-style tracing.
type Fired struct {
	Rule string
	Box  int
}

// FiringCounts aggregates a firing trace per rule name, for phase
// tracing and observability.
func FiringCounts(trace []Fired) map[string]int {
	out := make(map[string]int, len(trace))
	for _, f := range trace {
		out[f.Rule]++
	}
	return out
}

// Rewrite is Run without the audit.
func (e *Engine) Rewrite(g *qgm.Graph, opt Options) ([]Fired, error) { return e.Run(g, opt, false) }

// Run runs rules to fixpoint (or budget exhaustion) and reports the
// firing trace. audit runs the deep semantic verifier after every
// firing and, on failure, returns a structured *AuditError naming the
// offending rule, the firing index, and a before/after dump of the box
// it mutated. It also enforces the distinct-mode transition lattice
// (PERMIT→ENFORCE only; PRESERVE frozen). Tests use it to prove each
// rule preserves consistency.
func (e *Engine) Run(g *qgm.Graph, opt Options, audit bool) ([]Fired, error) {
	ctx := &Context{Graph: g}
	active := e.activeRules(opt)
	// The Sequential and Priority orders hold for the whole run. Seed
	// the RNG lazily: only the Statistical strategy draws from it, once
	// per box, and seeding math/rand costs ~10µs — too much to pay on
	// every statement's rewrite phase.
	order := active
	var rng *rand.Rand
	switch opt.Strategy {
	case Priority:
		order = append([]*Rule(nil), active...)
		sort.SliceStable(order, func(i, j int) bool { return order[i].Priority > order[j].Priority })
	case Statistical:
		rng = rand.New(rand.NewSource(opt.Seed + 1))
		order = make([]*Rule, 0, len(active))
	}
	var trace []Fired
	var buf [16]*qgm.Box
	boxes := buf[:0]

	for {
		if opt.Budget > 0 && len(trace) >= opt.Budget {
			return trace, nil // stop at a consistent state
		}
		boxes = searchOrder(g, opt.Search, boxes)
		fired := false
	boxLoop:
		for _, b := range boxes {
			if rng != nil {
				order = shuffle(active, rng, order)
			}
			for _, r := range order {
				if !r.Condition(ctx, b) {
					continue
				}
				var before string
				var modes map[*qgm.Box]qgm.DistinctMode
				if audit {
					before = qgm.DumpBox(b, b == g.Top)
					modes = distinctSnapshot(g)
				}
				if err := r.Action(ctx, b); err != nil {
					return trace, fmt.Errorf("rewrite: rule %s on box %d: %w", r.Name, b.ID, err)
				}
				g.GC()
				if audit {
					if aerr := auditFiring(g, r.Name, len(trace), b, before, modes); aerr != nil {
						trace = append(trace, Fired{Rule: r.Name, Box: b.ID})
						aerr.Trace = trace
						return trace, aerr
					}
				}
				trace = append(trace, Fired{Rule: r.Name, Box: b.ID})
				fired = true
				break boxLoop // graph changed; restart the search
			}
		}
		if !fired {
			return trace, nil
		}
	}
}

func (e *Engine) activeRules(opt Options) []*Rule {
	if len(opt.Classes) == 0 {
		return e.rules
	}
	allowed := map[string]bool{}
	for _, c := range opt.Classes {
		allowed[c] = true
	}
	var out []*Rule
	for _, r := range e.rules {
		if allowed[r.Class] {
			out = append(out, r)
		}
	}
	return out
}

// shuffle draws a weighted shuffle of rules into buf, each rule's
// weight its priority+1.
func shuffle(rules []*Rule, rng *rand.Rand, buf []*Rule) []*Rule {
	total := 0
	for _, r := range rules {
		total += r.Priority + 1
	}
	out := append(buf[:0], rules...)
	for remaining := out; len(remaining) > 0; remaining = remaining[1:] {
		pick := rng.Intn(total)
		acc := 0
		for i, r := range remaining {
			acc += r.Priority + 1
			if pick < acc {
				// Move r to the front, keeping the others in order.
				copy(remaining[1:i+1], remaining[:i])
				remaining[0] = r
				total -= r.Priority + 1
				break
			}
		}
	}
	return out
}

// searchOrder lists into out the boxes reachable from the top in the
// requested browse order; DepthFirst is top-down preorder, BreadthFirst
// is level order. out serves every pass of a run; a box is seen once
// it is listed.
func searchOrder(g *qgm.Graph, order SearchOrder, out []*qgm.Box) []*qgm.Box {
	out = out[:0]
	if g.Top == nil {
		return out
	}
	switch order {
	case DepthFirst:
		return dfs(g.Top, out)
	case BreadthFirst:
		out = append(out, g.Top)
		for i := 0; i < len(out); i++ {
			for _, q := range out[i].Quants {
				if q.Input != nil && !slices.Contains(out, q.Input) {
					out = append(out, q.Input)
				}
			}
		}
	}
	return out
}

func dfs(b *qgm.Box, out []*qgm.Box) []*qgm.Box {
	if b == nil || slices.Contains(out, b) {
		return out
	}
	out = append(out, b)
	for _, q := range b.Quants {
		out = dfs(q.Input, out)
	}
	return out
}
