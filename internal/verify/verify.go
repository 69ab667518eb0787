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
	"sync"

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
// violations, or nil when the graph is well-formed. It checks in state
// an earlier call left behind, so a graph that passes allocates
// nothing; a returned *Report shares nothing with that state.
func Graph(g *qgm.Graph) *Report {
	var c *checker
	spare.Lock()
	if n := len(spare.free); n > 0 {
		c, spare.free[n-1], spare.free = spare.free[n-1], nil, spare.free[:n-1]
	}
	spare.Unlock()
	if c == nil {
		c = &checker{byBox: map[*qgm.Box]*boxState{}, byQID: map[int]*qgm.Box{}}
	}
	c.g = g
	c.run()
	var rep *Report
	if len(c.violations) > 0 {
		rep = &Report{Violations: c.violations}
	}
	// Clear every box and quantifier pointer before giving c back.
	for _, s := range c.byID {
		*s = boxState{}
	}
	clear(c.boxes)
	clear(c.byBox)
	clear(c.owners)
	clear(c.byQID)
	c.g, c.violations, c.boxes, c.marked, c.stamp = nil, nil, c.boxes[:0], nil, 0
	spare.Lock()
	if len(spare.free) < maxSpare {
		spare.free = append(spare.free, c)
	}
	spare.Unlock()
	return rep
}

// spare holds idle checkers, newest on top. It is a bounded stack, not
// a sync.Pool: under the race detector a Pool drops a quarter of what
// it is given. An idle checker refers to no box, so it pins no graph.
var spare struct {
	sync.Mutex
	free []*checker
}

// maxSpare bounds the idle checkers, maxDenseID the box IDs and QIDs a
// checker indexes by slice; larger ones, and a second box with one ID,
// go to its maps.
const maxSpare, maxDenseID = 4, 1 << 10

type checker struct {
	g          *qgm.Graph
	violations []Violation
	// boxes is every box reachable from the top, including deferred
	// subquery subtrees (reachable only through expr.Subplan payloads),
	// in discovery order, then the dangling boxes.
	boxes []*qgm.Box
	byID  []*boxState
	byBox map[*qgm.Box]*boxState
	// owners holds the box owning each quantifier at its QID.
	owners []*qgm.Box
	byQID  map[int]*qgm.Box
	// marked is the root of the last subtree marked for the correlation
	// scope check; the boxes in it carry mark == stamp.
	marked *qgm.Box
	stamp  int
}

type boxState struct {
	box                                    *qgm.Box
	registered, visited, onStack, dangling bool
	// viaSubplan marks boxes reachable only through subplan edges;
	// after GC these are legitimately unregistered.
	viaSubplan bool
	// via is the edge discovery first reached the box over: its path.
	via  edge
	mark int
}

// edge leads from a box to an input: over quantifier qid, or, for a
// deferred subquery, from the expression at loc.
type edge struct {
	from    *qgm.Box
	qid     int
	subplan bool
	loc     qgm.Loc
}

// state returns b's state: at its ID while box IDs are dense and
// distinct, as a graph's are, else in byBox.
func (c *checker) state(b *qgm.Box) *boxState {
	for b.ID >= len(c.byID) && b.ID < maxDenseID {
		c.byID = append(c.byID, new(boxState))
	}
	if b.ID >= 0 && b.ID < len(c.byID) && (c.byID[b.ID].box == nil || c.byID[b.ID].box == b) {
		c.byID[b.ID].box = b
		return c.byID[b.ID]
	}
	if c.byBox[b] == nil {
		c.byBox[b] = &boxState{box: b}
	}
	return c.byBox[b]
}

// owner returns the box owning quantifier id qid, if any.
func (c *checker) owner(qid int) *qgm.Box {
	if qid >= 0 && qid < len(c.owners) {
		return c.owners[qid]
	}
	return c.byQID[qid]
}

// add records a violation at the path of box at followed by suffix, or
// at suffix alone when at is nil: paths are built only for violations.
func (c *checker) add(class string, at *qgm.Box, suffix, format string, args ...any) {
	if at != nil {
		suffix = c.path(at) + suffix
	}
	c.violations = append(c.violations,
		Violation{Class: class, Path: suffix, Msg: fmt.Sprintf(format, args...)})
}

// path locates a box from the top along its discovery edges.
func (c *checker) path(b *qgm.Box) string {
	switch s := c.state(b); {
	case s.dangling:
		return boxLabel(b) + " (dangling)"
	case s.via.from == nil:
		return boxLabel(b) + " (top)"
	default:
		return c.path(s.via.from) + s.via.suffix(b)
	}
}

// suffix is what the edge adds to the path of its source box.
func (e edge) suffix(to *qgm.Box) string {
	if e.subplan {
		return fmt.Sprintf(" / %s / subplan %s", e.loc, boxLabel(to))
	}
	return fmt.Sprintf(" / q%d / %s", e.qid, boxLabel(to))
}

func boxLabel(b *qgm.Box) string { return fmt.Sprintf("box %d (%s)", b.ID, b.Kind) }

func (c *checker) run() {
	g := c.g
	if g.Top == nil {
		c.add(ClassStructure, nil, "graph", "graph has no top box")
		return
	}
	for _, b := range g.Boxes {
		c.state(b).registered = true
	}
	if !c.state(g.Top).registered {
		c.add(ClassStructure, nil, boxLabel(g.Top), "top box not registered")
	}

	c.discover(g.Top, edge{}, false)
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

// eachSubplan calls f on every deferred-subquery box the box's
// expressions reference, with the location of the referencing
// expression.
func eachSubplan(b *qgm.Box, f func(loc qgm.Loc, sub *qgm.Box)) {
	b.VisitExprs(func(loc qgm.Loc, e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if sp, ok := x.(*expr.Subplan); ok {
				if ds, ok := sp.Aux.(*qgm.DeferredSubquery); ok && ds.Box != nil {
					f(loc, ds.Box)
				}
			}
			return true
		})
	})
}

// discover walks the graph from b, reached over via, along range edges
// and deferred subplan edges, recording each box's discovery edge and
// detecting illegal cycles. A back edge is legal only when it closes on
// a recursive UNION box (the fixpoint reference of a recursive table
// expression).
func (c *checker) discover(b *qgm.Box, via edge, deferred bool) {
	s := c.state(b)
	if s.onStack {
		if b.Kind == qgm.KindUnion && b.Recursive {
			return // legal fixpoint back edge
		}
		c.add(ClassCycle, via.from, via.suffix(b),
			"cyclic box reference closes on %s, which is not a recursive UNION", boxLabel(b))
		return
	}
	if s.visited {
		if !deferred {
			s.viaSubplan = false
		}
		return
	}
	s.visited, s.viaSubplan, s.via, s.onStack = true, deferred, via, true
	c.boxes = append(c.boxes, b)
	for _, q := range b.Quants {
		if q.Input == nil {
			c.add(ClassStructure, b, "", "quantifier %s(q%d) has no range edge", q.Name, q.QID)
			continue
		}
		c.discover(q.Input, edge{from: b, qid: q.QID}, deferred)
	}
	eachSubplan(b, func(loc qgm.Loc, sub *qgm.Box) {
		c.discover(sub, edge{from: b, subplan: true, loc: loc}, true)
	})
	s.onStack = false
}

// checkDangling flags registered boxes unreachable from the top, and
// quantifier-reachable boxes that are unregistered (deferred subquery
// subtrees are exempt: GC legitimately strips them after translation).
func (c *checker) checkDangling() {
	for _, b := range c.g.Boxes {
		if s := c.state(b); !s.visited {
			c.add(ClassDanglingBox, nil, boxLabel(b), "registered box is unreachable from the top box")
			// Still give its quantifiers owners so column references
			// into it are diagnosed as scope errors, not crashes.
			c.boxes = append(c.boxes, b)
			s.dangling, s.viaSubplan = true, true
		}
	}
	for _, b := range c.boxes {
		if s := c.state(b); !s.registered && !s.viaSubplan {
			c.add(ClassStructure, b, "", "box reachable via range edges is not registered in the graph")
		}
	}
}

func (c *checker) collectQuants() {
	for _, b := range c.boxes {
		for _, q := range b.Quants {
			if o := c.owner(q.QID); o != nil {
				c.add(ClassStructure, b, "",
					"duplicate quantifier id q%d (also %s in %s)", q.QID, o.FindQuant(q.QID).Name, boxLabel(o))
				continue
			}
			for q.QID >= len(c.owners) && q.QID < maxDenseID {
				c.owners = append(c.owners, nil)
			}
			if q.QID >= 0 && q.QID < len(c.owners) {
				c.owners[q.QID] = b
			} else {
				c.byQID[q.QID] = b
			}
		}
	}
}

// inSubtree reports whether b lies in the subtree rooted at root
// (range edges plus deferred subplan edges). It marks the subtree of
// the root it was last asked about.
func (c *checker) inSubtree(root, b *qgm.Box) bool {
	if root != c.marked {
		c.marked = root
		c.stamp++
		c.mark(root)
	}
	return c.state(b).mark == c.stamp
}

func (c *checker) mark(x *qgm.Box) {
	if x == nil {
		return
	}
	s := c.state(x)
	if s.mark == c.stamp {
		return
	}
	s.mark = c.stamp
	for _, q := range x.Quants {
		c.mark(q.Input)
	}
	eachSubplan(x, func(_ qgm.Loc, sub *qgm.Box) { c.mark(sub) })
}

// checkExprs validates every column reference of every expression slot:
// the quantifier must exist, must be in scope (local to the box or
// owned by an ancestor — correlation), the ordinal must be inside the
// input head, and the reference's static type must be consistent with
// the column it names. Head columns must also agree with the type of
// the expression computing them.
func (c *checker) checkExprs(b *qgm.Box) {
	b.VisitExprs(func(loc qgm.Loc, e expr.Expr) {
		if e == nil {
			c.add(ClassStructure, b, " / "+loc.String(), "nil expression")
			return
		}
		expr.Walk(e, func(x expr.Expr) bool {
			if col, ok := x.(*expr.Col); ok && col.QID >= 0 { // QID < 0: already slot-bound
				c.checkCol(b, loc, col)
			}
			return true
		})
	})
	for i, hc := range b.Head {
		if hc.Expr == nil {
			continue
		}
		if et := hc.Expr.Type(); !typesAgree(et, hc.Type) {
			c.add(ClassHeadType, b, fmt.Sprintf(" / head[%d] (%s)", i, hc.Name),
				"head column declares type %s but its expression computes %s",
				datum.TypeName(hc.Type), datum.TypeName(et))
		}
	}
	for i, p := range b.Preds {
		if p == nil || p.Expr == nil {
			c.add(ClassStructure, b, fmt.Sprintf(" / pred[%d]", i), "nil predicate")
		}
	}
}

func (c *checker) checkCol(b *qgm.Box, loc qgm.Loc, col *expr.Col) {
	owner := c.owner(col.QID)
	var in *qgm.Box
	if owner != nil {
		in = owner.FindQuant(col.QID).Input
	}
	switch {
	case owner == nil:
		c.add(ClassOrphanQID, b, " / "+loc.String(),
			"column %s references nonexistent quantifier q%d", col.Name, col.QID)
	case owner != b && !c.inSubtree(owner, b):
		c.add(ClassOrphanQID, b, " / "+loc.String(),
			"column %s references q%d of %s, which is neither local nor an ancestor (out of scope)",
			col.Name, col.QID, boxLabel(owner))
	case in == nil:
		// already reported as a structure violation
	case col.Ord < 0 || col.Ord >= len(in.Head):
		c.add(ClassOrdinal, b, " / "+loc.String(),
			"column %s ordinal %d out of range for q%d over %s (head has %d columns)",
			col.Name, col.Ord, col.QID, boxLabel(in), len(in.Head))
	default:
		if ht := in.Head[col.Ord].Type; !typesAgree(col.Typ, ht) {
			c.add(ClassColType, b, " / "+loc.String(),
				"column %s declares type %s but q%d.%d has type %s",
				col.Name, datum.TypeName(col.Typ), col.QID, col.Ord, datum.TypeName(ht))
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
	for _, q := range b.Quants {
		bad := func(format string, args ...any) {
			c.add(ClassQuantType, b, fmt.Sprintf(" / quant %s(q%d)", q.Name, q.QID), format, args...)
		}
		switch q.Type {
		case qgm.ForEach, qgm.PreserveForeach:
			if q.SetPred != "" {
				bad("setformer %s carries set predicate %q", q.Type, q.SetPred)
			}
			if q.Negated {
				bad("setformer %s cannot be negated", q.Type)
			}
			if q.Type == qgm.PreserveForeach && b.Kind != qgm.KindOuterJoin {
				bad("PF quantifier outside a %s box", qgm.KindOuterJoin)
			}
		case qgm.QExists:
			if q.SetPred != "ANY" {
				bad("existential quantifier must fold with ANY, has %q", q.SetPred)
			}
		case qgm.QAll:
			if q.SetPred != "ALL" {
				bad("universal quantifier must fold with ALL, has %q", q.SetPred)
			}
		case qgm.QScalar:
			if q.SetPred != "" {
				bad("scalar quantifier carries set predicate %q", q.SetPred)
			}
			if q.Negated {
				bad("scalar quantifier cannot be negated")
			}
			if q.Input != nil && len(q.Input.Head) != 1 {
				bad("scalar quantifier input must have one column, has %d", len(q.Input.Head))
			}
		default:
			// DBC-defined quantifier: by convention its type names its
			// set-predicate function.
			if q.SetPred != q.Type {
				bad("custom quantifier %s must fold with set predicate %q, has %q",
					q.Type, q.Type, q.SetPred)
			}
		}
	}
}

// checkShape enforces per-kind body invariants.
func (c *checker) checkShape(b *qgm.Box) {
	switch b.Kind {
	case qgm.KindSelect, qgm.KindOuterJoin:
		for i, hc := range b.Head {
			if hc.Expr == nil {
				c.add(ClassBoxShape, b, fmt.Sprintf(" / head[%d] (%s)", i, hc.Name),
					"%s head column has no computing expression", b.Kind)
			}
		}
	case qgm.KindGroupBy:
		if len(b.Quants) != 1 {
			c.add(ClassBoxShape, b, "", "GROUPBY box must have exactly one quantifier, has %d", len(b.Quants))
		} else if b.Quants[0].Type != qgm.ForEach {
			c.add(ClassBoxShape, b, "", "GROUPBY quantifier must be a setformer (F), is %s", b.Quants[0].Type)
		}
	case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
		if len(b.Quants) < 2 {
			c.add(ClassBoxShape, b, "", "%s box must have at least two operands, has %d", b.Kind, len(b.Quants))
		}
		for _, q := range b.Quants {
			if q.Type != qgm.ForEach {
				c.add(ClassBoxShape, b, "", "%s operand q%d must be a setformer (F), is %s", b.Kind, q.QID, q.Type)
			}
			if q.Input != nil && len(q.Input.Head) != len(b.Head) {
				c.add(ClassBoxShape, b, "", "%s operand q%d has %d columns, box head has %d",
					b.Kind, q.QID, len(q.Input.Head), len(b.Head))
			}
		}
		if b.Recursive && b.Kind != qgm.KindUnion {
			c.add(ClassBoxShape, b, "", "recursive flag on a %s box (only UNION can be a fixpoint)", b.Kind)
		}
	case qgm.KindBase:
		if b.Table == nil {
			c.add(ClassBoxShape, b, "", "base box has no catalog table")
			break
		}
		if len(b.Quants) != 0 || len(b.Preds) != 0 {
			c.add(ClassBoxShape, b, "", "base box must have no quantifiers or predicates")
		}
		if len(b.Head) != len(b.Table.Cols) {
			c.add(ClassBoxShape, b, "", "base box head has %d columns, table %s has %d",
				len(b.Head), b.Table.Name, len(b.Table.Cols))
		}
	case qgm.KindValues:
		if len(b.Quants) != 0 {
			c.add(ClassBoxShape, b, "", "VALUES box must have no quantifiers")
		}
		for ri, row := range b.Rows {
			if len(row) != len(b.Head) {
				c.add(ClassBoxShape, b, fmt.Sprintf(" / values[%d]", ri),
					"row has %d values, head has %d columns", len(row), len(b.Head))
				continue
			}
			for ci, e := range row {
				if e == nil {
					continue
				}
				if !typesAgree(e.Type(), b.Head[ci].Type) {
					c.add(ClassHeadType, b, fmt.Sprintf(" / values[%d][%d]", ri, ci),
						"value of type %s in column %s of type %s",
						datum.TypeName(e.Type()), b.Head[ci].Name, datum.TypeName(b.Head[ci].Type))
				}
			}
		}
	case qgm.KindTableFn:
		if b.TableFn == nil {
			c.add(ClassBoxShape, b, "", "TABLEFN box has no table function")
		}
	case qgm.KindChoose:
		if len(b.Quants) == 0 {
			c.add(ClassBoxShape, b, "", "CHOOSE box has no alternatives")
		}
		if len(b.ChooseConds) != 0 && len(b.ChooseConds) != len(b.Quants) {
			c.add(ClassBoxShape, b, "", "CHOOSE has %d conditions for %d alternatives",
				len(b.ChooseConds), len(b.Quants))
		}
		for _, q := range b.Quants {
			if q.Input != nil && len(q.Input.Head) != len(b.Head) {
				c.add(ClassBoxShape, b, "", "CHOOSE alternative q%d has %d columns, box head has %d",
					q.QID, len(q.Input.Head), len(b.Head))
			}
		}
	case qgm.KindInsert:
		c.checkDML(b)
		if len(b.Quants) != 1 {
			c.add(ClassBoxShape, b, "", "INSERT box must have exactly one source quantifier, has %d", len(b.Quants))
		} else if src := b.Quants[0].Input; src != nil && len(src.Head) != len(b.TargetCols) {
			c.add(ClassBoxShape, b, "", "INSERT source has %d columns for %d target columns",
				len(src.Head), len(b.TargetCols))
		}
	case qgm.KindUpdate:
		c.checkDML(b)
		if len(b.Head) != len(b.TargetCols) {
			c.add(ClassBoxShape, b, "", "UPDATE has %d SET expressions for %d target columns",
				len(b.Head), len(b.TargetCols))
		}
	case qgm.KindDelete:
		c.checkDML(b)
	}
	if b.Recursive && b.Kind != qgm.KindUnion {
		// Covered for set ops above; catch remaining kinds too.
		if b.Kind != qgm.KindIntersect && b.Kind != qgm.KindExcept {
			c.add(ClassBoxShape, b, "", "recursive flag on a %s box (only UNION can be a fixpoint)", b.Kind)
		}
	}
}

func (c *checker) checkDML(b *qgm.Box) {
	if b != c.g.Top {
		c.add(ClassBoxShape, b, "", "%s box may only appear as the top box", b.Kind)
	}
	if b.TargetTable == nil {
		c.add(ClassBoxShape, b, "", "%s box has no target table", b.Kind)
		return
	}
	for _, ord := range b.TargetCols {
		if ord < 0 || ord >= len(b.TargetTable.Cols) {
			c.add(ClassOrdinal, b, "", "target column ordinal %d out of range for table %s (%d columns)",
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
	switch b.Distinct {
	case qgm.EnforceDistinct:
		switch b.Kind {
		case qgm.KindSelect, qgm.KindGroupBy:
		case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
			if b.SetAll {
				c.add(ClassDistinct, b, "", "%s ALL contradicts ENFORCE distinct mode", b.Kind)
			}
		default:
			c.add(ClassDistinct, b, "", "ENFORCE distinct mode on a %s box", b.Kind)
		}
	case qgm.PreserveDuplicates:
		switch b.Kind {
		case qgm.KindGroupBy:
			c.add(ClassDistinct, b, "", "PRESERVE distinct mode on a GROUPBY box (output has no duplicates)")
		case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
			if !b.SetAll {
				c.add(ClassDistinct, b, "", "PRESERVE distinct mode on a duplicate-eliminating %s", b.Kind)
			}
		}
	}
	switch b.Kind {
	case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
		if !b.SetAll && b.Distinct != qgm.EnforceDistinct {
			c.add(ClassDistinct, b, "", "duplicate-eliminating %s must carry ENFORCE distinct mode, has %s",
				b.Kind, b.Distinct)
		}
	}
	if b.Recursive && b.Distinct != qgm.EnforceDistinct {
		c.add(ClassDistinct, b, "", "recursive UNION must enforce distinctness for the fixpoint to terminate")
	}
}

// checkAggregates enforces aggregate and group-by placement: aggregate
// calls appear only as the root of a GROUPBY box's head expressions
// (the translator normalizes all other positions away), every non-
// aggregate head expression of a GROUPBY box must be one of its
// grouping expressions, and grouping expressions themselves contain no
// aggregates.
func (c *checker) checkAggregates(b *qgm.Box) {
	flagNested := func(loc qgm.Loc, suffix string, e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) bool {
			if _, ok := x.(*expr.AggCall); ok {
				c.add(ClassAggPlacement, b, " / "+loc.String()+suffix,
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
			c.add(ClassBoxShape, b, " / "+loc.String(), "GROUPBY head column has no computing expression")
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
			c.add(ClassAggPlacement, b, " / "+loc.String(),
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
