package optimizer

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/verify"
)

// Optimizer chooses a query evaluation plan for a QGM graph by
// optimizing each operation independently, bottom up, with rules
// peculiar to each operation's type (section 6).
type Optimizer struct {
	cat *catalog.Catalog
	gen *Generator

	// AllowBushy admits composite-inner join trees ("bushy trees");
	// off by default, as System R and R* always pruned them.
	AllowBushy bool
	// AllowCartesian admits joins with no join predicate; off by
	// default. Disconnected quantifier sets still get Cartesian
	// products as a fallback so every query remains plannable.
	AllowCartesian bool

	// mu serializes Optimize calls: the memo, graph and trace fields
	// are per-compilation state. Executing already-compiled plans is
	// concurrency-safe; compilation itself is serialized per optimizer.
	mu         sync.Mutex
	graph      *qgm.Graph
	memo       map[*qgm.Box]*plan.Node
	inProgress map[*qgm.Box]bool
	// spare are the emptied Candidates of finished join enumerations.
	spare []*Candidates
	// scratch is the join enumerator's working memory (scratch.go); nil
	// until the first join enumeration.
	scratch *scratch
	// trace receives STAR expansion counts for the current compilation;
	// nil when the caller is not tracing.
	trace *obs.Trace

	// parThreshold overrides the exchange-insertion threshold of the
	// parallelism pass (parallel.go); atomic so SetParallelThreshold can
	// race with compilation.
	parThreshold atomic.Int64

	// cfg is the per-compilation configuration, valid only while mu is
	// held (OptimizeConfig sets it, the deferred reset clears it). It
	// lets concurrent sessions compile with different degrees of
	// parallelism and audit modes without sharing mutable state.
	cfg Config
}

// Config configures a single compilation; the zero value plans serially,
// unaudited, under the optimizer-wide search-space switches.
type Config struct {
	// DOP is the degree of parallelism to plan for; <= 1 plans serially.
	DOP int
	// Audit verifies the chosen plan against the QGM head (arity,
	// types, required order) and the per-operator shape invariants
	// before returning it; failures surface as compile errors instead
	// of wrong results at execution time.
	Audit bool
}

// New returns an optimizer over the catalog with the built-in STAR
// array.
func New(cat *catalog.Catalog) *Optimizer {
	o := &Optimizer{cat: cat}
	o.gen = NewGenerator(BuiltinSTARs())
	return o
}

// Generator exposes the STAR array for DBC extension.
func (o *Optimizer) Generator() *Generator { return o.gen }

// Fingerprint summarizes everything on the optimizer's side that can
// change which plan a compilation under cfg produces for a given QGM, or
// whether it was verified: the search-space switches, cfg's audit mode,
// rank pruning, the STAR-array generation and the parallel threshold.
// Plan caches fold it (together with the degree of parallelism and the
// rewrite configuration) into their keys, so two compilations share a
// cache entry only when they would have produced the same plan. Being
// comparable, it can key a memo.
func (o *Optimizer) Fingerprint(cfg Config) Fingerprint {
	return Fingerprint{o.AllowBushy, o.AllowCartesian, cfg.Audit, o.gen.MaxRank,
		o.gen.Generation(), o.parThreshold.Load()}
}

// Fingerprint is the optimizer's share of a plan-cache key.
type Fingerprint struct {
	Bushy, Cartesian, Audit bool
	MaxRank                 int
	Stars, Threshold        int64
}

// OptimizeConfig compiles a rewritten QGM graph into a query evaluation
// plan under a per-compilation Config, recording per-STAR expansion
// counts into tr (nil-safe: a nil trace records nothing).
func (o *Optimizer) OptimizeConfig(g *qgm.Graph, tr *obs.Trace, cfg Config) (*plan.Compiled, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.trace = tr
	o.cfg = cfg
	defer func() { o.trace = nil; o.cfg = Config{}; o.resetScratch() }()
	o.graph = g
	o.memo = map[*qgm.Box]*plan.Node{}
	o.inProgress = map[*qgm.Box]bool{}
	root, err := o.PlanBox(g.Top)
	if err != nil {
		return nil, err
	}
	if len(g.OrderBy) > 0 {
		keys := make([]plan.SortKey, len(g.OrderBy))
		for i, os := range g.OrderBy {
			keys[i] = plan.SortKey{Slot: os.Col, Desc: os.Desc}
		}
		if !root.Props.OrderSatisfies(keys) {
			root = sortNode(root, keys)
		}
	}
	if g.HiddenOrderCols > 0 {
		// Project away the hidden sort-key columns appended by the
		// translator.
		keep := len(root.Cols) - g.HiddenOrderCols
		exprs := make([]expr.Expr, keep)
		for i := 0; i < keep; i++ {
			exprs[i] = expr.NewCol(root.Cols[i].QID, root.Cols[i].Ord, "", root.Types[i])
		}
		root = &plan.Node{
			Op:     plan.OpProject,
			Inputs: []*plan.Node{root},
			Cols:   append([]plan.ColRef(nil), root.Cols[:keep]...),
			Types:  append([]datum.TypeID(nil), root.Types[:keep]...),
			Exprs:  exprs,
			Props:  root.Props,
		}
	}
	if g.Limit != nil {
		props := root.Props
		// A constant limit caps the estimate; a parameter's value is
		// unknown at compile time.
		if c, ok := g.Limit.(*expr.Const); ok && c.Val.Type() == datum.TInt {
			props.Rows = min(props.Rows, float64(max(c.Val.Int(), 0)))
		}
		root = &plan.Node{
			Op:        plan.OpLimit,
			Inputs:    []*plan.Node{root},
			Cols:      root.Cols,
			Types:     root.Types,
			LimitExpr: g.Limit,
			Props:     props,
		}
	}
	root = o.insertExchanges(root)
	out := &plan.Compiled{Root: root, Graph: g}
	visible := g.Top.Head[:len(g.Top.Head)-g.HiddenOrderCols]
	if k := g.Top.Kind; k == qgm.KindInsert || k == qgm.KindUpdate || k == qgm.KindDelete {
		visible = nil // DML returns no rows: a head holds SET expressions
	}
	for _, hc := range visible {
		out.OutputNames = append(out.OutputNames, hc.Name)
		out.OutputTypes = append(out.OutputTypes, hc.Type)
	}
	if len(out.OutputNames) == 0 && g.Top.Kind == qgm.KindBase {
		for _, hc := range g.Top.Head {
			out.OutputNames = append(out.OutputNames, hc.Name)
			out.OutputTypes = append(out.OutputTypes, hc.Type)
		}
	}
	if cfg.Audit {
		if rep := verify.Plan(out); rep != nil {
			return nil, fmt.Errorf("optimizer: plan audit failed: %w", rep)
		}
	}
	return out, nil
}

// PlanBox optimizes one QGM box (memoized). Exposed for the join
// enumerator and for DBC STAR alternatives.
func (o *Optimizer) PlanBox(b *qgm.Box) (*plan.Node, error) {
	if p, ok := o.memo[b]; ok {
		return p, nil
	}
	if o.inProgress[b] {
		return nil, fmt.Errorf("optimizer: cyclic reference to box %d outside a recursive union", b.ID)
	}
	o.inProgress[b] = true
	defer delete(o.inProgress, b)
	ctx := &Ctx{Opt: o, Gen: o.gen}
	plans, err := ctx.Evaluate("PLAN", Args{Box: b})
	if err != nil {
		return nil, err
	}
	best := o.scratch.keep(cheapest(plans))
	if best == nil {
		return nil, fmt.Errorf("optimizer: no plan for box %d (%s)", b.ID, b.Kind)
	}
	o.memo[b] = best
	return best, nil
}

// boxCols labels a box plan's output columns: slot i carries the box's
// i-th head column, identified by the pseudo-quantifier id -boxID.
func boxCols(b *qgm.Box) ([]plan.ColRef, []datum.TypeID) {
	cols := make([]plan.ColRef, len(b.Head))
	types := make([]datum.TypeID, len(b.Head))
	for i, hc := range b.Head {
		cols[i] = plan.ColRef{QID: -b.ID, Ord: i}
		types[i] = hc.Type
	}
	return cols, types
}

// accessNode relabels a box plan's outputs as quantifier q's columns.
func accessNode(q *qgm.Quantifier, inner *plan.Node) *plan.Node {
	cols := make([]plan.ColRef, len(q.Input.Head))
	types := make([]datum.TypeID, len(q.Input.Head))
	for i, hc := range q.Input.Head {
		cols[i] = plan.ColRef{QID: q.QID, Ord: i}
		types[i] = hc.Type
	}
	return &plan.Node{
		Op:     plan.OpAccess,
		Inputs: []*plan.Node{inner},
		Cols:   cols,
		Types:  types,
		QID:    q.QID,
		Props: plan.Props{
			Order: inner.Props.Order,
			Rows:  inner.Props.Rows,
			Cost:  inner.Props.Cost,
		},
	}
}

func sortNode(in *plan.Node, keys []plan.SortKey) *plan.Node {
	return &plan.Node{
		Op:       plan.OpSort,
		Inputs:   []*plan.Node{in},
		Cols:     in.Cols,
		Types:    in.Types,
		SortKeys: keys,
		Props:    costSort(in.Props, keys),
	}
}

func filterNode(o *Optimizer, in *plan.Node, preds []expr.Expr) *plan.Node {
	if len(preds) == 0 {
		return in
	}
	return &plan.Node{
		Op:     plan.OpFilter,
		Inputs: []*plan.Node{in},
		Cols:   in.Cols,
		Types:  in.Types,
		Preds:  preds,
		Props:  o.costFilter(in.Props, preds),
	}
}

// subtreeReferences reports whether the subgraph under start contains a
// quantifier ranging over target (detects recursive references).
func subtreeReferences(start, target *qgm.Box) bool {
	seen := map[*qgm.Box]bool{}
	var walk func(b *qgm.Box) bool
	walk = func(b *qgm.Box) bool {
		if b == nil || seen[b] {
			return false
		}
		seen[b] = true
		for _, q := range b.Quants {
			if q.Input == target || walk(q.Input) {
				return true
			}
		}
		return false
	}
	return walk(start)
}

// foreignCorrCols lists every (qid, ord) column referenced inside the
// subtree under sub that belongs to a quantifier OUTSIDE the subtree —
// the correlation vector a SUBQ node must supply. Entries referencing
// quantifiers of enclosing queries (multi-level correlation) are
// resolved from the enclosing correlation vector at build time.
func foreignCorrCols(sub *qgm.Box, owner *qgm.Box) []plan.ColRef {
	own := map[int]bool{}
	seen := map[*qgm.Box]bool{}
	var mark func(b *qgm.Box)
	mark = func(b *qgm.Box) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, q := range b.Quants {
			own[q.QID] = true
			mark(q.Input)
		}
	}
	mark(sub)

	var out []plan.ColRef
	have := map[plan.ColRef]bool{}
	collect := func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok && c.QID >= 0 && !own[c.QID] {
				ref := plan.ColRef{QID: c.QID, Ord: c.Ord}
				if !have[ref] {
					have[ref] = true
					out = append(out, ref)
				}
			}
			return true
		})
	}
	seen = map[*qgm.Box]bool{}
	var scan func(b *qgm.Box)
	scan = func(b *qgm.Box) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, hc := range b.Head {
			if hc.Expr != nil {
				collect(hc.Expr)
			}
		}
		for _, p := range b.Preds {
			collect(p.Expr)
		}
		for _, ge := range b.GroupBy {
			collect(ge)
		}
		for _, row := range b.Rows {
			for _, e := range row {
				collect(e)
			}
		}
		for _, e := range b.TFScalarArgs {
			collect(e)
		}
		for _, q := range b.Quants {
			scan(q.Input)
		}
	}
	scan(sub)
	return out
}

// impliedEqualities derives transitive equality predicates: from a=b
// and b=c it adds a=c, giving the enumerator additional join edges
// (section 6: "the enumeration exploits ... implied predicates").
func impliedEqualities(preds []expr.Expr) []expr.Expr {
	type colKey struct{ qid, ord int }
	parent := map[colKey]colKey{}
	var find func(k colKey) colKey
	find = func(k colKey) colKey {
		p, ok := parent[k]
		if !ok || p == k {
			return k
		}
		r := find(p)
		parent[k] = r
		return r
	}
	union := func(a, b colKey) {
		parent[find(a)] = find(b)
	}
	direct := map[[2]colKey]bool{} // the equalities already stated
	var seen []colKey              // first-seen order, so the output is deterministic
	members := map[colKey]*expr.Col{}
	for _, p := range preds {
		cmp, ok := p.(*expr.Cmp)
		if !ok || cmp.Op != expr.OpEq {
			continue
		}
		lc, lok := cmp.L.(*expr.Col)
		rc, rok := cmp.R.(*expr.Col)
		if !lok || !rok {
			continue
		}
		lk := colKey{lc.QID, lc.Ord}
		rk := colKey{rc.QID, rc.Ord}
		for _, k := range [2]colKey{lk, rk} {
			if _, ok := parent[k]; !ok {
				parent[k] = k
				seen = append(seen, k)
			}
		}
		union(lk, rk)
		members[lk], members[rk] = lc, rc
		direct[[2]colKey{lk, rk}], direct[[2]colKey{rk, lk}] = true, true
	}
	var out []expr.Expr
	for i, a := range seen {
		for _, b := range seen[i+1:] {
			if find(a) != find(b) || a.qid == b.qid || direct[[2]colKey{a, b}] {
				continue
			}
			out = append(out, &expr.Cmp{Op: expr.OpEq, L: members[a], R: members[b]})
		}
	}
	return out
}

// guessRecRows estimates a recursive reference's cardinality from the
// seed branch.
func guessRecRows(seed *plan.Node) float64 {
	if seed == nil {
		return 100
	}
	return math.Max(10, seed.Props.Rows*4)
}
