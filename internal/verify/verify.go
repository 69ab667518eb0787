// Package verify is the deep semantic verifier for QGM graphs and
// query evaluation plans. Starburst's extensibility bet — arbitrary
// parties adding rewrite rules and STARs — only works if the system can
// prove each transformation left the QGM semantically well-formed, so
// this package checks far more than structure: head-column type
// consistency, column-ordinal bounds, quantifier scoping and
// reachability, acyclicity (modulo recursive unions), distinct-mode
// legality, setformer/quantifier type legality, dangling-box and
// orphan-QID detection, and aggregate/group-by placement. Every violation carries a
// box/quantifier path, not just a boolean.
//
// It is the one QGM verifier: the engine's compile step runs Graph on
// every translated statement, and the rewrite engine's audit mode runs
// it after every rule firing.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
)

// Violation classes. Tests assert on these, so they are stable API.
const (
	ClassStructure    = "structure"     // missing top, nil predicates, broken range edges
	ClassDanglingBox  = "dangling-box"  // registered box unreachable from the top
	ClassOrphanQID    = "orphan-qid"    // column reference to a nonexistent or out-of-scope quantifier
	ClassOrdinal      = "ordinal"       // column ordinal outside its quantifier's head
	ClassHeadType     = "head-type"     // head column type inconsistent with its expression
	ClassColType      = "col-type"      // column reference type inconsistent with the input head
	ClassCycle        = "cycle"         // cyclic range edges outside a recursive union
	ClassQuantType    = "quant-type"    // illegal iterator type / set-predicate combination
	ClassBoxShape     = "box-shape"     // box body violates its kind's shape invariants
	ClassDistinct     = "distinct"      // illegal duplicate-handling mode (or audit-time transition)
	ClassAggPlacement = "agg-placement" // aggregate outside a GROUPBY head, or group head not in GROUP BY
	ClassPlan         = "plan"          // physical plan inconsistent with itself or the QGM head
)

// Violation is one verifier finding, located by a box/quantifier path.
type Violation struct {
	// Class is one of the Class* constants.
	Class string
	// Path locates the finding: a chain of boxes and quantifiers from
	// the top box, e.g. "box 1 (SELECT, top) / q4 / box 3 (GROUPBY) / pred[0]".
	Path string
	// Msg describes the violation.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Class, v.Path, v.Msg)
}

// Report is a non-empty set of violations; it implements error.
type Report struct {
	Violations []Violation
}

func (r *Report) Error() string {
	if len(r.Violations) == 1 {
		return "verify: " + r.Violations[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violations:", len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Has reports whether any violation has the given class.
func (r *Report) Has(class string) bool {
	if r == nil {
		return false
	}
	for _, v := range r.Violations {
		if v.Class == class {
			return true
		}
	}
	return false
}

// Graph runs every semantic pass over g and returns the collected
// violations, or nil when the graph is well-formed.
func Graph(g *qgm.Graph) *Report {
	c := &checker{
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

type checker struct {
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

func (c *checker) add(class, path, format string, args ...any) {
	c.report.Violations = append(c.report.Violations,
		Violation{Class: class, Path: path, Msg: fmt.Sprintf(format, args...)})
}

func boxLabel(b *qgm.Box) string { return fmt.Sprintf("box %d (%s)", b.ID, b.Kind) }

func (c *checker) run() {
	g := c.g
	if g.Top == nil {
		c.add(ClassStructure, "graph", "graph has no top box")
		return
	}
	for _, b := range g.Boxes {
		c.registered[b] = true
	}
	if !c.registered[g.Top] {
		c.add(ClassStructure, boxLabel(g.Top), "top box not registered")
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

// subplanRef is a deferred-subquery box and where a box's expressions
// reference it.
type subplanRef struct {
	Loc qgm.Loc
	Box *qgm.Box
}

// subplanBoxes lists the deferred-subquery boxes referenced by the
// box's expressions (with the location of the referencing expression).
func subplanBoxes(b *qgm.Box) []subplanRef {
	var out []subplanRef
	b.VisitExprs(func(loc qgm.Loc, e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if sp, ok := x.(*expr.Subplan); ok {
				if ds, ok := sp.Aux.(*qgm.DeferredSubquery); ok && ds.Box != nil {
					out = append(out, subplanRef{loc, ds.Box})
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
func (c *checker) discover() {
	c.viaSubplan = map[*qgm.Box]bool{}
	onStack := map[*qgm.Box]bool{}
	visited := map[*qgm.Box]bool{}

	var walk func(b *qgm.Box, path string, deferred bool)
	walk = func(b *qgm.Box, path string, deferred bool) {
		if onStack[b] {
			if b.Kind == qgm.KindUnion && b.Recursive {
				return // legal fixpoint back edge
			}
			c.add(ClassCycle, path, "cyclic box reference closes on %s, which is not a recursive UNION", boxLabel(b))
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
			walk(q.Input, fmt.Sprintf("%s / q%d / %s", path, q.QID, boxLabel(q.Input)), deferred)
		}
		for _, sp := range subplanBoxes(b) {
			walk(sp.Box, fmt.Sprintf("%s / %s / subplan %s", path, sp.Loc, boxLabel(sp.Box)), true)
		}
		onStack[b] = false
	}
	walk(c.g.Top, boxLabel(c.g.Top)+" (top)", false)
}

// checkDangling flags registered boxes unreachable from the top, and
// quantifier-reachable boxes that are unregistered (deferred subquery
// subtrees are exempt: GC legitimately strips them after translation).
func (c *checker) checkDangling() {
	reach := map[*qgm.Box]bool{}
	for _, b := range c.boxes {
		reach[b] = true
	}
	for _, b := range c.g.Boxes {
		if !reach[b] {
			c.add(ClassDanglingBox, boxLabel(b), "registered box is unreachable from the top box")
			// Still give its quantifiers owners so column references
			// into it are diagnosed as scope errors, not crashes.
			c.boxes = append(c.boxes, b)
			c.pathOf[b] = boxLabel(b) + " (dangling)"
			c.viaSubplan[b] = true
		}
	}
	for _, b := range c.boxes {
		if !c.registered[b] && !c.viaSubplan[b] {
			c.add(ClassStructure, c.pathOf[b], "box reachable via range edges is not registered in the graph")
		}
	}
}

func (c *checker) collectQuants() {
	for _, b := range c.boxes {
		for _, q := range b.Quants {
			if prev, dup := c.ownerQ[q.QID]; dup {
				c.add(ClassStructure, c.pathOf[b],
					"duplicate quantifier id q%d (also %s in %s)", q.QID, prev.Name, boxLabel(c.ownerBox[q.QID]))
				continue
			}
			c.ownerQ[q.QID] = q
			c.ownerBox[q.QID] = b
		}
	}
}

// inSubtree reports whether b lies in the subtree rooted at root
// (range edges plus deferred subplan edges), memoized per root.
func (c *checker) inSubtree(root, b *qgm.Box) bool {
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
			for _, sp := range subplanBoxes(x) {
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
func (c *checker) checkExprs(b *qgm.Box) {
	path := c.pathOf[b]
	b.VisitExprs(func(loc qgm.Loc, e expr.Expr) {
		if e == nil {
			c.add(ClassStructure, path+" / "+loc.String(), "nil expression")
			return
		}
		for _, col := range expr.Cols(e) {
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
					col.Name, col.QID, boxLabel(owner))
				continue
			}
			if q.Input == nil {
				continue // already reported as a structure violation
			}
			if col.Ord < 0 || col.Ord >= len(q.Input.Head) {
				c.add(ClassOrdinal, path+" / "+loc.String(),
					"column %s ordinal %d out of range for q%d over %s (head has %d columns)",
					col.Name, col.Ord, col.QID, boxLabel(q.Input), len(q.Input.Head))
				continue
			}
			ht := q.Input.Head[col.Ord].Type
			if !typesAgree(col.Typ, ht) {
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
		if et := hc.Expr.Type(); !typesAgree(et, hc.Type) {
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

// typesAgree is the lenient consistency test: NULL is a wildcard
// (untyped literals, empty CASE branches) and numeric coercion is
// accepted in either direction; everything else must match exactly.
func typesAgree(a, b datum.TypeID) bool {
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
func (c *checker) checkQuantTypes(b *qgm.Box) {
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
func (c *checker) checkShape(b *qgm.Box) {
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
				if !typesAgree(e.Type(), b.Head[ci].Type) {
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

func (c *checker) checkDML(b *qgm.Box) {
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
func (c *checker) checkDistinct(b *qgm.Box) {
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
func (c *checker) checkAggregates(b *qgm.Box) {
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
