package verify

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
)

// ReferenceGraph is the verifier as it stood before it checked in
// reused state: fresh maps per call, a path string per box and per
// quantifier. Tests hold Graph to its reports, byte for byte.
func ReferenceGraph(g *qgm.Graph) *Report {
	c := &refChecker{
		g:          g,
		registered: map[*qgm.Box]bool{},
		pathOf:     map[*qgm.Box]string{},
		ownerQ:     map[int]*qgm.Quantifier{},
		ownerBox:   map[int]*qgm.Box{},
		subtree:    map[*qgm.Box]map[*qgm.Box]bool{},
	}
	c.run()
	if len(c.report.Violations) == 0 {
		return nil
	}
	return &c.report
}

type refChecker struct {
	g      *qgm.Graph
	report Report

	registered map[*qgm.Box]bool
	// boxes is every box reachable from the top, including deferred
	// subquery subtrees (reachable only through expr.Subplan payloads),
	// in discovery order.
	boxes []*qgm.Box
	// pathOf locates each reachable box for diagnostics.
	pathOf map[*qgm.Box]string
	// viaSubplan marks boxes reachable only through subplan edges;
	// after GC these are legitimately unregistered.
	viaSubplan map[*qgm.Box]bool
	ownerQ     map[int]*qgm.Quantifier
	ownerBox   map[int]*qgm.Box
	// subtree memoizes reachability sets for the correlation scope check.
	subtree map[*qgm.Box]map[*qgm.Box]bool
}

func (c *refChecker) add(class, path, format string, args ...any) {
	c.report.Violations = append(c.report.Violations,
		Violation{Class: class, Path: path, Msg: fmt.Sprintf(format, args...)})
}

func refBoxLabel(b *qgm.Box) string { return fmt.Sprintf("box %d (%s)", b.ID, b.Kind) }

func (c *refChecker) run() {
	g := c.g
	if g.Top == nil {
		c.add(ClassStructure, "graph", "graph has no top box")
		return
	}
	for _, b := range g.Boxes {
		c.registered[b] = true
	}
	if !c.registered[g.Top] {
		c.add(ClassStructure, refBoxLabel(g.Top), "top box not registered")
	}

	c.discover()
	c.checkDangling()
	c.collectQuants()
	for _, b := range c.boxes {
		c.checkExprs(b)
		c.checkQuantTypes(b)
		c.checkShape(b)
		c.checkDistinct(b)
		c.checkAggregates(b)
	}
}

// refSubplanRef is a deferred-subquery box and where a box's expressions
// reference it.
type refSubplanRef struct {
	Loc qgm.Loc
	Box *qgm.Box
}

// refSubplanBoxes lists the deferred-subquery boxes referenced by the
// box's expressions (with the location of the referencing expression).
func refSubplanBoxes(b *qgm.Box) []refSubplanRef {
	var out []refSubplanRef
	b.VisitExprs(func(loc qgm.Loc, e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if sp, ok := x.(*expr.Subplan); ok {
				if ds, ok := sp.Aux.(*qgm.DeferredSubquery); ok && ds.Box != nil {
					out = append(out, refSubplanRef{loc, ds.Box})
				}
			}
			return true
		})
	})
	return out
}

// discover walks the graph from the top along range edges and deferred
// subplan edges, recording paths and detecting illegal cycles. A back
// edge is legal only when it closes on a recursive UNION box (the
// fixpoint reference of a recursive table expression).
func (c *refChecker) discover() {
	c.viaSubplan = map[*qgm.Box]bool{}
	onStack := map[*qgm.Box]bool{}
	visited := map[*qgm.Box]bool{}

	var walk func(b *qgm.Box, path string, deferred bool)
	walk = func(b *qgm.Box, path string, deferred bool) {
		if onStack[b] {
			if b.Kind == qgm.KindUnion && b.Recursive {
				return // legal fixpoint back edge
			}
			c.add(ClassCycle, path, "cyclic box reference closes on %s, which is not a recursive UNION", refBoxLabel(b))
			return
		}
		if visited[b] {
			if !deferred {
				c.viaSubplan[b] = false
			}
			return
		}
		visited[b] = true
		c.viaSubplan[b] = deferred
		c.boxes = append(c.boxes, b)
		c.pathOf[b] = path
		onStack[b] = true
		for _, q := range b.Quants {
			if q.Input == nil {
				c.add(ClassStructure, path, "quantifier %s(q%d) has no range edge", q.Name, q.QID)
				continue
			}
			walk(q.Input, fmt.Sprintf("%s / q%d / %s", path, q.QID, refBoxLabel(q.Input)), deferred)
		}
		for _, sp := range refSubplanBoxes(b) {
			walk(sp.Box, fmt.Sprintf("%s / %s / subplan %s", path, sp.Loc, refBoxLabel(sp.Box)), true)
		}
		onStack[b] = false
	}
	walk(c.g.Top, refBoxLabel(c.g.Top)+" (top)", false)
}

// checkDangling flags registered boxes unreachable from the top, and
// quantifier-reachable boxes that are unregistered (deferred subquery
// subtrees are exempt: GC legitimately strips them after translation).
func (c *refChecker) checkDangling() {
	reach := map[*qgm.Box]bool{}
	for _, b := range c.boxes {
		reach[b] = true
	}
	for _, b := range c.g.Boxes {
		if !reach[b] {
			c.add(ClassDanglingBox, refBoxLabel(b), "registered box is unreachable from the top box")
			// Still give its quantifiers owners so column references
			// into it are diagnosed as scope errors, not crashes.
			c.boxes = append(c.boxes, b)
			c.pathOf[b] = refBoxLabel(b) + " (dangling)"
			c.viaSubplan[b] = true
		}
	}
	for _, b := range c.boxes {
		if !c.registered[b] && !c.viaSubplan[b] {
			c.add(ClassStructure, c.pathOf[b], "box reachable via range edges is not registered in the graph")
		}
	}
}

func (c *refChecker) collectQuants() {
	for _, b := range c.boxes {
		for _, q := range b.Quants {
			if prev, dup := c.ownerQ[q.QID]; dup {
				c.add(ClassStructure, c.pathOf[b],
					"duplicate quantifier id q%d (also %s in %s)", q.QID, prev.Name, refBoxLabel(c.ownerBox[q.QID]))
				continue
			}
			c.ownerQ[q.QID] = q
			c.ownerBox[q.QID] = b
		}
	}
}

// inSubtree reports whether b lies in the subtree rooted at root
// (range edges plus deferred subplan edges), memoized per root.
func (c *refChecker) inSubtree(root, b *qgm.Box) bool {
	set, ok := c.subtree[root]
	if !ok {
		set = map[*qgm.Box]bool{}
		var mark func(x *qgm.Box)
		mark = func(x *qgm.Box) {
			if x == nil || set[x] {
				return
			}
			set[x] = true
			for _, q := range x.Quants {
				mark(q.Input)
			}
			for _, sp := range refSubplanBoxes(x) {
				mark(sp.Box)
			}
		}
		mark(root)
		c.subtree[root] = set
	}
	return set[b]
}

// checkExprs validates every column reference of every expression slot:
// the quantifier must exist, must be in scope (local to the box or
// owned by an ancestor — correlation), the ordinal must be inside the
// input head, and the reference's static type must be consistent with
// the column it names. Head columns must also agree with the type of
// the expression computing them.
func (c *refChecker) checkExprs(b *qgm.Box) {
	path := c.pathOf[b]
	b.VisitExprs(func(loc qgm.Loc, e expr.Expr) {
		if e == nil {
			c.add(ClassStructure, path+" / "+loc.String(), "nil expression")
			return
		}
		for _, col := range refCols(e) {
			if col.QID < 0 {
				continue // already slot-bound (executor-phase reference)
			}
			q, ok := c.ownerQ[col.QID]
			if !ok {
				c.add(ClassOrphanQID, path+" / "+loc.String(),
					"column %s references nonexistent quantifier q%d", col.Name, col.QID)
				continue
			}
			owner := c.ownerBox[col.QID]
			if owner != b && !c.inSubtree(owner, b) {
				c.add(ClassOrphanQID, path+" / "+loc.String(),
					"column %s references q%d of %s, which is neither local nor an ancestor (out of scope)",
					col.Name, col.QID, refBoxLabel(owner))
				continue
			}
			if q.Input == nil {
				continue // already reported as a structure violation
			}
			if col.Ord < 0 || col.Ord >= len(q.Input.Head) {
				c.add(ClassOrdinal, path+" / "+loc.String(),
					"column %s ordinal %d out of range for q%d over %s (head has %d columns)",
					col.Name, col.Ord, col.QID, refBoxLabel(q.Input), len(q.Input.Head))
				continue
			}
			ht := q.Input.Head[col.Ord].Type
			if !refTypesAgree(col.Typ, ht) {
				c.add(ClassColType, path+" / "+loc.String(),
					"column %s declares type %s but q%d.%d has type %s",
					col.Name, datum.TypeName(col.Typ), col.QID, col.Ord, datum.TypeName(ht))
			}
		}
	})
	for i, hc := range b.Head {
		if hc.Expr == nil {
			continue
		}
		if et := hc.Expr.Type(); !refTypesAgree(et, hc.Type) {
			c.add(ClassHeadType, fmt.Sprintf("%s / head[%d] (%s)", path, i, hc.Name),
				"head column declares type %s but its expression computes %s",
				datum.TypeName(hc.Type), datum.TypeName(et))
		}
	}
	for i, p := range b.Preds {
		if p == nil || p.Expr == nil {
			c.add(ClassStructure, fmt.Sprintf("%s / pred[%d]", path, i), "nil predicate")
		}
	}
}

// refTypesAgree is the lenient consistency test: NULL is a wildcard
// (untyped literals, empty CASE branches) and numeric coercion is
// accepted in either direction; everything else must match exactly.
func refTypesAgree(a, b datum.TypeID) bool {
	if a == datum.TNull || b == datum.TNull {
		return true
	}
	return datum.Compatible(a, b) || datum.Compatible(b, a)
}

// checkQuantTypes enforces the iterator-type conventions: setformers
// (F/PF) carry no set predicate and no negation, E folds with ANY, A
// with ALL, scalar quantifiers fold nothing, and a DBC quantifier type
// names its own set-predicate function. PF appears only in outer-join
// boxes.
func (c *refChecker) checkQuantTypes(b *qgm.Box) {
	path := c.pathOf[b]
	for _, q := range b.Quants {
		qpath := fmt.Sprintf("%s / quant %s(q%d)", path, q.Name, q.QID)
		switch q.Type {
		case qgm.ForEach, qgm.PreserveForeach:
			if q.SetPred != "" {
				c.add(ClassQuantType, qpath, "setformer %s carries set predicate %q", q.Type, q.SetPred)
			}
			if q.Negated {
				c.add(ClassQuantType, qpath, "setformer %s cannot be negated", q.Type)
			}
			if q.Type == qgm.PreserveForeach && b.Kind != qgm.KindOuterJoin {
				c.add(ClassQuantType, qpath, "PF quantifier outside a %s box", qgm.KindOuterJoin)
			}
		case qgm.QExists:
			if q.SetPred != "ANY" {
				c.add(ClassQuantType, qpath, "existential quantifier must fold with ANY, has %q", q.SetPred)
			}
		case qgm.QAll:
			if q.SetPred != "ALL" {
				c.add(ClassQuantType, qpath, "universal quantifier must fold with ALL, has %q", q.SetPred)
			}
		case qgm.QScalar:
			if q.SetPred != "" {
				c.add(ClassQuantType, qpath, "scalar quantifier carries set predicate %q", q.SetPred)
			}
			if q.Negated {
				c.add(ClassQuantType, qpath, "scalar quantifier cannot be negated")
			}
			if q.Input != nil && len(q.Input.Head) != 1 {
				c.add(ClassQuantType, qpath, "scalar quantifier input must have one column, has %d", len(q.Input.Head))
			}
		default:
			// DBC-defined quantifier: by convention its type names its
			// set-predicate function.
			if q.SetPred != q.Type {
				c.add(ClassQuantType, qpath, "custom quantifier %s must fold with set predicate %q, has %q",
					q.Type, q.Type, q.SetPred)
			}
		}
	}
}

// checkShape enforces per-kind body invariants.
func (c *refChecker) checkShape(b *qgm.Box) {
	path := c.pathOf[b]
	switch b.Kind {
	case qgm.KindSelect, qgm.KindOuterJoin:
		for i, hc := range b.Head {
			if hc.Expr == nil {
				c.add(ClassBoxShape, fmt.Sprintf("%s / head[%d] (%s)", path, i, hc.Name),
					"%s head column has no computing expression", b.Kind)
			}
		}
	case qgm.KindGroupBy:
		if len(b.Quants) != 1 {
			c.add(ClassBoxShape, path, "GROUPBY box must have exactly one quantifier, has %d", len(b.Quants))
		} else if b.Quants[0].Type != qgm.ForEach {
			c.add(ClassBoxShape, path, "GROUPBY quantifier must be a setformer (F), is %s", b.Quants[0].Type)
		}
	case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
		if len(b.Quants) < 2 {
			c.add(ClassBoxShape, path, "%s box must have at least two operands, has %d", b.Kind, len(b.Quants))
		}
		for _, q := range b.Quants {
			if q.Type != qgm.ForEach {
				c.add(ClassBoxShape, path, "%s operand q%d must be a setformer (F), is %s", b.Kind, q.QID, q.Type)
			}
			if q.Input != nil && len(q.Input.Head) != len(b.Head) {
				c.add(ClassBoxShape, path, "%s operand q%d has %d columns, box head has %d",
					b.Kind, q.QID, len(q.Input.Head), len(b.Head))
			}
		}
		if b.Recursive && b.Kind != qgm.KindUnion {
			c.add(ClassBoxShape, path, "recursive flag on a %s box (only UNION can be a fixpoint)", b.Kind)
		}
	case qgm.KindBase:
		if b.Table == nil {
			c.add(ClassBoxShape, path, "base box has no catalog table")
			break
		}
		if len(b.Quants) != 0 || len(b.Preds) != 0 {
			c.add(ClassBoxShape, path, "base box must have no quantifiers or predicates")
		}
		if len(b.Head) != len(b.Table.Cols) {
			c.add(ClassBoxShape, path, "base box head has %d columns, table %s has %d",
				len(b.Head), b.Table.Name, len(b.Table.Cols))
		}
	case qgm.KindValues:
		if len(b.Quants) != 0 {
			c.add(ClassBoxShape, path, "VALUES box must have no quantifiers")
		}
		for ri, row := range b.Rows {
			if len(row) != len(b.Head) {
				c.add(ClassBoxShape, fmt.Sprintf("%s / values[%d]", path, ri),
					"row has %d values, head has %d columns", len(row), len(b.Head))
				continue
			}
			for ci, e := range row {
				if e == nil {
					continue
				}
				if !refTypesAgree(e.Type(), b.Head[ci].Type) {
					c.add(ClassHeadType, fmt.Sprintf("%s / values[%d][%d]", path, ri, ci),
						"value of type %s in column %s of type %s",
						datum.TypeName(e.Type()), b.Head[ci].Name, datum.TypeName(b.Head[ci].Type))
				}
			}
		}
	case qgm.KindTableFn:
		if b.TableFn == nil {
			c.add(ClassBoxShape, path, "TABLEFN box has no table function")
		}
	case qgm.KindChoose:
		if len(b.Quants) == 0 {
			c.add(ClassBoxShape, path, "CHOOSE box has no alternatives")
		}
		if len(b.ChooseConds) != 0 && len(b.ChooseConds) != len(b.Quants) {
			c.add(ClassBoxShape, path, "CHOOSE has %d conditions for %d alternatives",
				len(b.ChooseConds), len(b.Quants))
		}
		for _, q := range b.Quants {
			if q.Input != nil && len(q.Input.Head) != len(b.Head) {
				c.add(ClassBoxShape, path, "CHOOSE alternative q%d has %d columns, box head has %d",
					q.QID, len(q.Input.Head), len(b.Head))
			}
		}
	case qgm.KindInsert:
		c.checkDML(b)
		if len(b.Quants) != 1 {
			c.add(ClassBoxShape, path, "INSERT box must have exactly one source quantifier, has %d", len(b.Quants))
		} else if src := b.Quants[0].Input; src != nil && len(src.Head) != len(b.TargetCols) {
			c.add(ClassBoxShape, path, "INSERT source has %d columns for %d target columns",
				len(src.Head), len(b.TargetCols))
		}
	case qgm.KindUpdate:
		c.checkDML(b)
		if len(b.Head) != len(b.TargetCols) {
			c.add(ClassBoxShape, path, "UPDATE has %d SET expressions for %d target columns",
				len(b.Head), len(b.TargetCols))
		}
	case qgm.KindDelete:
		c.checkDML(b)
	}
	if b.Recursive && b.Kind != qgm.KindUnion {
		// Covered for set ops above; catch remaining kinds too.
		if b.Kind != qgm.KindIntersect && b.Kind != qgm.KindExcept {
			c.add(ClassBoxShape, path, "recursive flag on a %s box (only UNION can be a fixpoint)", b.Kind)
		}
	}
}

func (c *refChecker) checkDML(b *qgm.Box) {
	path := c.pathOf[b]
	if b != c.g.Top {
		c.add(ClassBoxShape, path, "%s box may only appear as the top box", b.Kind)
	}
	if b.TargetTable == nil {
		c.add(ClassBoxShape, path, "%s box has no target table", b.Kind)
		return
	}
	for _, ord := range b.TargetCols {
		if ord < 0 || ord >= len(b.TargetTable.Cols) {
			c.add(ClassOrdinal, path, "target column ordinal %d out of range for table %s (%d columns)",
				ord, b.TargetTable.Name, len(b.TargetTable.Cols))
		}
	}
}

// checkDistinct enforces the static part of the PERMIT/ENFORCE/PRESERVE
// lattice: which modes are meaningful on which box kinds. (Transition
// legality — ENFORCE never weakening to PERMIT, PRESERVE frozen — is a
// property of rule firings and is checked by the rewrite engine's audit
// mode, which compares modes before and after each firing.)
func (c *refChecker) checkDistinct(b *qgm.Box) {
	path := c.pathOf[b]
	switch b.Distinct {
	case qgm.EnforceDistinct:
		switch b.Kind {
		case qgm.KindSelect, qgm.KindGroupBy:
		case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
			if b.SetAll {
				c.add(ClassDistinct, path, "%s ALL contradicts ENFORCE distinct mode", b.Kind)
			}
		default:
			c.add(ClassDistinct, path, "ENFORCE distinct mode on a %s box", b.Kind)
		}
	case qgm.PreserveDuplicates:
		switch b.Kind {
		case qgm.KindGroupBy:
			c.add(ClassDistinct, path, "PRESERVE distinct mode on a GROUPBY box (output has no duplicates)")
		case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
			if !b.SetAll {
				c.add(ClassDistinct, path, "PRESERVE distinct mode on a duplicate-eliminating %s", b.Kind)
			}
		}
	}
	switch b.Kind {
	case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
		if !b.SetAll && b.Distinct != qgm.EnforceDistinct {
			c.add(ClassDistinct, path, "duplicate-eliminating %s must carry ENFORCE distinct mode, has %s",
				b.Kind, b.Distinct)
		}
	}
	if b.Recursive && b.Distinct != qgm.EnforceDistinct {
		c.add(ClassDistinct, path, "recursive UNION must enforce distinctness for the fixpoint to terminate")
	}
}

// checkAggregates enforces aggregate and group-by placement: aggregate
// calls appear only as the root of a GROUPBY box's head expressions
// (the translator normalizes all other positions away), every non-
// aggregate head expression of a GROUPBY box must be one of its
// grouping expressions, and grouping expressions themselves contain no
// aggregates.
func (c *refChecker) checkAggregates(b *qgm.Box) {
	path := c.pathOf[b]
	flagNested := func(loc qgm.Loc, suffix string, e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if _, ok := x.(*expr.AggCall); ok {
				c.add(ClassAggPlacement, path+" / "+loc.String()+suffix,
					"aggregate call %s outside a GROUPBY head", x)
				return false
			}
			return true
		})
	}
	if b.Kind != qgm.KindGroupBy {
		b.VisitExprs(func(loc qgm.Loc, e expr.Expr) { flagNested(loc, "", e) })
		return
	}
	for i, hc := range b.Head {
		loc := qgm.Loc{Slot: "head", I: i, Name: hc.Name}
		if hc.Expr == nil {
			c.add(ClassBoxShape, path+" / "+loc.String(), "GROUPBY head column has no computing expression")
			continue
		}
		if agg, isAgg := hc.Expr.(*expr.AggCall); isAgg {
			if agg.Arg != nil {
				flagNested(loc, " (argument)", agg.Arg)
			}
			continue // aggregate at root position: legal
		}
		flagNested(loc, "", hc.Expr)
		matched := false
		for _, ge := range b.GroupBy {
			if expr.EqualExprs(hc.Expr, ge) {
				matched = true
				break
			}
		}
		if !matched {
			c.add(ClassAggPlacement, path+" / "+loc.String(),
				"non-aggregate head expression %s is not one of the grouping expressions", hc.Expr)
		}
	}
	for i, ge := range b.GroupBy {
		flagNested(qgm.Loc{Slot: "groupby", I: i}, "", ge)
	}
	for i := range b.Preds {
		flagNested(qgm.Loc{Slot: "pred", I: i}, "", b.Preds[i].Expr)
	}
}

// refCols returns every column reference in the tree, as expr.Cols did.
func refCols(e expr.Expr) []*expr.Col {
	var out []*expr.Col
	expr.Walk(e, func(x expr.Expr) bool {
		if c, ok := x.(*expr.Col); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}
