// Package qgm implements the Query Graph Model (section 4 of the
// paper): Starburst's generic internal representation of queries, "the
// schema for a main memory database storing information about a query"
// and the main interface between compilation phases and between Corona
// and extensions.
//
// Queries are series of high-level operations on tables. Each operation
// is a Box with a head (the output table's columns) and a body
// (iterators ranging over input tables — the range edges — and
// predicates connecting them — the qualifier edges). Iterators are
// either setformers (F, or the extension type PF for outer join) or
// quantifiers (E, A, S, or DBC-defined types such as MAJORITY); most of
// QGM is generic — it describes tables — which is what makes the model
// extensible.
package qgm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
)

// Box kinds. Kinds are open-ended strings so DBCs can add new
// operations on tables (the paper's left outer join example is the
// built-in extension OuterJoin).
const (
	KindSelect    = "SELECT"
	KindGroupBy   = "GROUPBY"
	KindUnion     = "UNION"
	KindIntersect = "INTERSECT"
	KindExcept    = "EXCEPT"
	KindBase      = "BASE"    // access to a stored table
	KindValues    = "VALUES"  // literal rows
	KindTableFn   = "TABLEFN" // externally defined table function
	KindChoose    = "CHOOSE"  // run/optimize-time alternative selection (section 5)
	KindOuterJoin = "LEFTOUTER"
	KindInsert    = "INSERT"
	KindUpdate    = "UPDATE"
	KindDelete    = "DELETE"
)

// Quantifier (iterator) types. F and PF are setformers; the rest are
// quantifiers. The set is extensible: a DBC adding a set-predicate
// function introduces a quantifier type of the same name.
const (
	ForEach         = "F"
	PreserveForeach = "PF" // outer join extension: tuples preserved even without matches
	QExists         = "E"  // existential (IN, EXISTS, = ANY)
	QAll            = "A"  // universal (op ALL)
	QScalar         = "S"  // scalar subquery: at most one row
)

// Quantifier is a vertex of the QGM: an iterator ranging over an input
// table (a range edge connects it to its Input box).
type Quantifier struct {
	QID  int
	Name string
	// Type is the iterator type; setformers contribute tuples to the
	// output, quantifiers only restrict it.
	Type string
	// Negated marks NOT EXISTS / NOT IN style quantifiers.
	Negated bool
	// SetPred names the set-predicate function used to fold per-element
	// predicate truth (ANY for E, ALL for A, or a DBC function). Empty
	// for setformers and scalar quantifiers.
	SetPred string
	// Input is the box this iterator ranges over.
	Input *Box
}

// Columns exposes the input box's output columns.
func (q *Quantifier) Columns() []HeadCol { return q.Input.Head }

// IsSetformer reports whether tuples ranged over may contribute to the
// output (types F and PF) rather than merely restrict it.
func (q *Quantifier) IsSetformer() bool {
	return q.Type == ForEach || q.Type == PreserveForeach
}

// Col builds a column reference over this quantifier.
func (q *Quantifier) Col(ord int) *expr.Col {
	hc := q.Input.Head[ord]
	return expr.NewCol(q.QID, ord, q.Name+"."+hc.Name, hc.Type)
}

// HeadCol is one output column of a box: its name, type, and the
// expression (over the box's quantifiers) that computes it. Base-table
// boxes have nil exprs.
type HeadCol struct {
	Name string
	Type datum.TypeID
	Expr expr.Expr
}

// Predicate is a qualifier edge: a conjunct connecting one or more
// quantifiers (a loop when it references a single one).
type Predicate struct {
	Expr expr.Expr
}

// DistinctMode describes a box's duplicate handling, needed by the
// operation-merging rewrite rule (the paper's Rule 2 conditions mention
// Tl.distinct and OP2.eliminate-duplicate). The three modes form the
// PERMIT / ENFORCE / PRESERVE lattice of the Starburst rewrite system:
// PERMIT may be strengthened to ENFORCE by a rewrite rule (eliminating
// duplicates where they are semantically irrelevant), but ENFORCE must
// never be weakened back to PERMIT, and PRESERVE is frozen — no rule may
// change it in either direction. The verifier's audit mode checks these
// transitions after every rule firing.
type DistinctMode int

// Duplicate-handling modes.
const (
	// PermitDuplicates: duplicates in the output are acceptable; rules
	// may add or drop them freely.
	PermitDuplicates DistinctMode = iota
	// EnforceDistinct: the operation eliminates duplicates.
	EnforceDistinct
	// PreserveDuplicates: the exact duplicate multiplicity of the output
	// is semantically significant (e.g. the input of a SUM over a
	// non-distinct view); rules must neither introduce nor eliminate
	// duplicates here, and the mode itself is frozen.
	PreserveDuplicates
)

func (d DistinctMode) String() string {
	switch d {
	case EnforceDistinct:
		return "ENFORCE"
	case PreserveDuplicates:
		return "PRESERVE"
	}
	return "PERMIT"
}

// Box is one high-level operation on tables.
type Box struct {
	ID   int
	Kind string
	// Head describes the output table.
	Head []HeadCol
	// Quants are the iterators of the body, in declaration order (for
	// set operations, operand order).
	Quants []*Quantifier
	// Preds are the qualifier edges (conjuncts).
	Preds []*Predicate
	// Distinct is the box's duplicate handling.
	Distinct DistinctMode

	// GroupBy carries grouping expressions for GROUPBY boxes.
	GroupBy []expr.Expr

	// Table is the catalog table for BASE boxes.
	Table *catalog.Table

	// Rows carries literal tuples for VALUES boxes.
	Rows [][]expr.Expr

	// TableFn and TFScalarArgs describe TABLEFN boxes; the table
	// arguments are the box's quantifiers.
	TableFn      *expr.TableFunc
	TFScalarArgs []expr.Expr

	// SetAll marks UNION/INTERSECT/EXCEPT ALL (duplicates kept).
	SetAll bool

	// Recursive marks a UNION box that is the fixpoint of a cyclic
	// table-expression reference.
	Recursive bool

	// ChooseConds optionally guards each CHOOSE alternative (parallel
	// to Quants) with a predicate over host-language parameters. When
	// present, the CHOOSE "is kept in the plan until runtime to allow a
	// decision based on runtime parameters" (section 5, [GRAE89]); the
	// first alternative whose condition holds is executed, with the
	// last as default. When absent, the optimizer picks by cost.
	ChooseConds []expr.Expr

	// TargetTable names the table modified by INSERT/UPDATE/DELETE
	// boxes; TargetCols the column ordinals assigned (INSERT/UPDATE).
	TargetTable *catalog.Table
	TargetCols  []int

	// Ext is an open extension area for DBC-defined box kinds, keeping
	// QGM modifiable without changing its schema.
	Ext map[string]any
}

// FindQuant returns the quantifier with the given id, or nil.
func (b *Box) FindQuant(qid int) *Quantifier {
	for _, q := range b.Quants {
		if q.QID == qid {
			return q
		}
	}
	return nil
}

// RemoveQuant deletes a quantifier from the body.
func (b *Box) RemoveQuant(qid int) {
	for i, q := range b.Quants {
		if q.QID == qid {
			b.Quants = append(b.Quants[:i], b.Quants[i+1:]...)
			return
		}
	}
}

// AdoptQuants moves every quantifier of src into b (at the end of b's
// body, preserving order) and empties src's body. Range edges are
// unchanged: the quantifiers keep their ids and inputs. This is the
// body-restructuring step of operation merging; rules and primitives
// must use it rather than splicing Quants slices directly (enforced by
// starburst-lint's qgm-mutation check).
func (b *Box) AdoptQuants(src *Box) {
	b.Quants = append(b.Quants, src.Quants...)
	src.Quants = nil
}

// Setformers returns the body's setformer iterators.
func (b *Box) Setformers() []*Quantifier {
	var out []*Quantifier
	for _, q := range b.Quants {
		if q.IsSetformer() {
			out = append(out, q)
		}
	}
	return out
}

// SubqueryQuants returns the non-setformer iterators (E/A/S/custom).
func (b *Box) SubqueryQuants() []*Quantifier {
	var out []*Quantifier
	for _, q := range b.Quants {
		if !q.IsSetformer() {
			out = append(out, q)
		}
	}
	return out
}

// OutputDistinct reports whether the box's output provably has no
// duplicates (used by the merge rule's "T1.distinct" condition).
func (b *Box) OutputDistinct() bool {
	switch {
	case b.Distinct == EnforceDistinct:
		return true
	case b.Kind == KindGroupBy:
		return true // one row per group
	case b.Kind == KindUnion, b.Kind == KindIntersect, b.Kind == KindExcept:
		return !b.SetAll
	}
	return false
}

// OrderSpec is one ORDER BY key over the top box's output columns.
type OrderSpec struct {
	Col  int
	Desc bool
}

// Graph is a whole query: boxes linked by range edges, with one
// distinguished top box producing the query result.
type Graph struct {
	Top   *Box
	Boxes []*Box
	// OrderBy and Limit are result modifiers applied above the top box.
	OrderBy []OrderSpec
	Limit   expr.Expr
	// Params records host-variable names seen during translation.
	Params map[string]bool
	// HiddenOrderCols counts trailing head columns of the top box that
	// exist only to carry ORDER BY keys; the optimizer projects them
	// away after sorting.
	HiddenOrderCols int

	nextQID int
	nextBox int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{Params: map[string]bool{}, nextQID: 1, nextBox: 1}
}

// NewBox allocates a box of the given kind and registers it.
func (g *Graph) NewBox(kind string) *Box {
	b := &Box{ID: g.nextBox, Kind: kind}
	g.nextBox++
	g.Boxes = append(g.Boxes, b)
	return b
}

// NewQuant allocates a quantifier of the given type over input and
// appends it to box's body.
func (g *Graph) NewQuant(box *Box, typ, name string, input *Box) *Quantifier {
	q := &Quantifier{QID: g.nextQID, Name: name, Type: typ, Input: input}
	if name == "" {
		q.Name = fmt.Sprintf("Q%d", q.QID)
	}
	g.nextQID++
	box.Quants = append(box.Quants, q)
	return q
}

// RemoveBox unregisters a box (callers must have removed range edges).
func (g *Graph) RemoveBox(b *Box) {
	for i, x := range g.Boxes {
		if x == b {
			g.Boxes = append(g.Boxes[:i], g.Boxes[i+1:]...)
			return
		}
	}
}

// QuantByID finds a quantifier anywhere in the graph.
func (g *Graph) QuantByID(qid int) (*Box, *Quantifier) {
	for _, b := range g.Boxes {
		if q := b.FindQuant(qid); q != nil {
			return b, q
		}
	}
	return nil, nil
}

// RangersOver returns every quantifier (with its owning box) ranging
// over the given box — the incoming range edges.
func (g *Graph) RangersOver(target *Box) []struct {
	Box   *Box
	Quant *Quantifier
} {
	var out []struct {
		Box   *Box
		Quant *Quantifier
	}
	for _, b := range g.Boxes {
		for _, q := range b.Quants {
			if q.Input == target {
				out = append(out, struct {
					Box   *Box
					Quant *Quantifier
				}{b, q})
			}
		}
	}
	return out
}

// GC removes boxes unreachable from the top box (produced by merges).
func (g *Graph) GC() {
	if g.Top == nil {
		return
	}
	live := map[*Box]bool{}
	var mark func(b *Box)
	mark = func(b *Box) {
		if b == nil || live[b] {
			return
		}
		live[b] = true
		for _, q := range b.Quants {
			mark(q.Input)
		}
	}
	mark(g.Top)
	var kept []*Box
	for _, b := range g.Boxes {
		if live[b] {
			kept = append(kept, b)
		}
	}
	g.Boxes = kept
}

// Loc locates an expression slot of a box for diagnostics: its String
// is "head[2] (NAME)", "pred[0]", "values[1][3]", ... Only a diagnostic
// formats it, so walking a box's expressions builds no strings.
type Loc struct {
	Slot string // head, pred, groupby, values, tfarg or choosecond
	I, J int    // the slot's index; J is a VALUES row's column
	Name string // a head column's name
}

func (l Loc) String() string {
	switch l.Slot {
	case "head":
		return fmt.Sprintf("head[%d] (%s)", l.I, l.Name)
	case "values":
		return fmt.Sprintf("values[%d][%d]", l.I, l.J)
	}
	return fmt.Sprintf("%s[%d]", l.Slot, l.I)
}

// VisitExprs calls f on every expression attached to the box — head
// columns, predicates, grouping expressions, VALUES rows, table-function
// scalar arguments, CHOOSE conditions — with its location. It is the one
// enumeration of a box's expression slots: the structural checker, the
// deep verifier and graph-walking rewrite primitives all share it, so a
// new expression-bearing field added to Box needs updating only here.
func (b *Box) VisitExprs(f func(loc Loc, e expr.Expr)) {
	for i, hc := range b.Head {
		if hc.Expr != nil {
			f(Loc{Slot: "head", I: i, Name: hc.Name}, hc.Expr)
		}
	}
	for i, p := range b.Preds {
		f(Loc{Slot: "pred", I: i}, p.Expr)
	}
	for i, ge := range b.GroupBy {
		f(Loc{Slot: "groupby", I: i}, ge)
	}
	for ri, row := range b.Rows {
		for ci, e := range row {
			f(Loc{Slot: "values", I: ri, J: ci}, e)
		}
	}
	for i, e := range b.TFScalarArgs {
		f(Loc{Slot: "tfarg", I: i}, e)
	}
	for i, e := range b.ChooseConds {
		if e != nil {
			f(Loc{Slot: "choosecond", I: i}, e)
		}
	}
}

// String renders the graph in a stable textual form used by tests and
// EXPLAIN output; the rendering of a box mirrors Figure 2's elements:
// head, body iterators with types, and qualifier edges.
func (g *Graph) String() string {
	var b strings.Builder
	boxes := append([]*Box(nil), g.Boxes...)
	sort.Slice(boxes, func(i, j int) bool { return boxes[i].ID < boxes[j].ID })
	for _, box := range boxes {
		b.WriteString(DumpBox(box, box == g.Top))
	}
	return b.String()
}

// DumpBox renders one box in the Graph.String format; the rewrite
// engine's audit mode uses it for before/after firing diffs.
func DumpBox(box *Box, top bool) string {
	var b strings.Builder
	topMark := ""
	if top {
		topMark = " (top)"
	}
	fmt.Fprintf(&b, "Box %d: %s%s", box.ID, box.Kind, topMark)
	if box.Kind == KindBase {
		fmt.Fprintf(&b, " table=%s", box.Table.Name)
	}
	switch box.Distinct {
	case EnforceDistinct:
		b.WriteString(" distinct")
	case PreserveDuplicates:
		b.WriteString(" preserve-dups")
	}
	if box.SetAll {
		b.WriteString(" all")
	}
	if box.Recursive {
		b.WriteString(" recursive")
	}
	b.WriteString("\n")
	if len(box.Head) > 0 && box.Kind != KindBase {
		b.WriteString("  head:")
		for _, hc := range box.Head {
			if hc.Expr != nil {
				fmt.Fprintf(&b, " %s=%s", hc.Name, hc.Expr)
			} else {
				fmt.Fprintf(&b, " %s", hc.Name)
			}
		}
		b.WriteString("\n")
	}
	for _, q := range box.Quants {
		neg := ""
		if q.Negated {
			neg = " negated"
		}
		fmt.Fprintf(&b, "  quant %s(q%d) type=%s%s over box %d\n", q.Name, q.QID, q.Type, neg, q.Input.ID)
	}
	if len(box.GroupBy) > 0 {
		b.WriteString("  group by:")
		for _, e := range box.GroupBy {
			fmt.Fprintf(&b, " %s", e)
		}
		b.WriteString("\n")
	}
	for _, p := range box.Preds {
		fmt.Fprintf(&b, "  pred: %s\n", p.Expr)
	}
	return b.String()
}

// HeadNames lists a box's output column names.
func (b *Box) HeadNames() []string {
	out := make([]string, len(b.Head))
	for i, hc := range b.Head {
		out[i] = hc.Name
	}
	return out
}
