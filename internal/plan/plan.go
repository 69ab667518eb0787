// Package plan defines the Query Evaluation Plan (QEP): "an operator
// tree similar to a query specification in the relational algebra"
// (section 7). Nodes are invocations of LOLEPOPs — low-level plan
// operators, "a variation of the relational algebra supplemented with
// physical operators such as SCAN, SORT" (section 6) — produced by the
// optimizer's STAR expansion and interpreted by the Query Evaluation
// System.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
)

// Op names the built-in LOLEPOPs. The set is open: a DBC may register
// new operators with the QES and emit them from custom STARs.
const (
	OpScan     = "SCAN"     // stored table → stream, optional predicates
	OpIndex    = "ISCAN"    // index range/window access + fetch
	OpAccess   = "ACCESS"   // derived-table access: relabels a box plan's columns
	OpFilter   = "FILTER"   // apply predicates
	OpProject  = "PROJECT"  // compute output expressions
	OpSort     = "SORT"     // order by keys
	OpNLJoin   = "NLJN"     // nested-loop join (any kind)
	OpSMJoin   = "SMJN"     // sort-merge join (equijoin; inputs ordered)
	OpHSJoin   = "HSJN"     // hash join (equijoin)
	OpSubq     = "SUBQ"     // apply a subquery quantifier (join kinds: exists/all/scalar/custom)
	OpGroup    = "GROUP"    // grouping + aggregation
	OpDistinct = "DISTINCT" // duplicate elimination
	OpUnion    = "UNION"
	OpInter    = "INTERSECT"
	OpExcept   = "EXCEPT"
	OpValues   = "VALUES"
	OpTableFn  = "TABLEFN"
	OpTemp     = "TEMP"     // materialize input
	OpRecUnion = "RECUNION" // recursive fixpoint union
	OpRecRef   = "RECREF"   // reference to the enclosing recursive table
	OpChoose   = "CHOOSE"   // runtime alternative selection (section 5)
	OpLimit    = "LIMIT"
	OpGather   = "GATHER" // exchange: merge DOP parallel clones of the input subtree
	OpRepart   = "REPART" // exchange: hash-repartition the input across DOP workers
	OpInsert   = "INSERT"
	OpUpdate   = "UPDATE"
	OpDelete   = "DELETE"
)

// ColRef identifies a QGM column (quantifier id, ordinal) occupying one
// slot of a node's output row.
type ColRef struct {
	QID int
	Ord int
}

// SortKey is one ordering key over output slots.
type SortKey struct {
	Slot int
	Desc bool
}

// JoinKind separates what a join computes from how it computes it
// (section 7: "by clearly separating the control structure of the
// join, i.e., the join method, from the function performed during the
// join, i.e., the join kind"). Kinds are open strings; these are built
// in.
const (
	KindRegular   = "regular"
	KindLeftOuter = "leftouter"
	KindExists    = "exists" // semi-join; negated → anti
	KindAll       = "op-all"
	KindScalarSub = "scalar-subquery"
	// KindLateral applies a correlated derived table per outer tuple
	// (correlated table expressions; also the intermediate state after
	// Rule 1 converts a correlated existential to a setformer before
	// operation merging flattens it).
	KindLateral = "lateral"
)

// Props carries the operational (tuple order) and estimated (cost,
// cardinality) property classes of section 6. The relational class —
// which quantifiers a plan accounts for — is the iterator set the join
// enumerator files the plan under, so no plan carries it.
type Props struct {
	// Order is the (possibly empty) sort-order prefix of the output.
	Order []SortKey
	// Rows is the estimated output cardinality.
	Rows float64
	// Cost is the estimated cumulative cost (abstract units: 1.0 per
	// page I/O, see optimizer cost model).
	Cost float64
}

// OrderSatisfies reports whether the plan's order satisfies a required
// prefix.
func (p *Props) OrderSatisfies(req []SortKey) bool {
	if len(req) > len(p.Order) {
		return false
	}
	for i, k := range req {
		if p.Order[i] != k {
			return false
		}
	}
	return true
}

// Node is one LOLEPOP invocation. Each node takes 0+ input streams and
// produces one output stream whose schema is Cols.
type Node struct {
	Op     string
	Inputs []*Node
	// Cols is the output schema: which QGM column sits in each slot.
	Cols []ColRef
	// Types are the slot types, parallel to Cols.
	Types []datum.TypeID

	// SCAN / ISCAN / DML target.
	Table *catalog.Table
	// Index for ISCAN.
	Index *catalog.Index
	// LoVals/HiVals are start/stop key expressions for ISCAN (evaluated
	// at open; may reference correlation). Inclusive bounds.
	LoVals, HiVals []expr.Expr
	// QID is the quantifier whose columns a SCAN/ISCAN/ACCESS/RECREF
	// node produces.
	QID int

	// Preds are predicates applied by SCAN/ISCAN/FILTER (residual for
	// joins).
	Preds []expr.Expr

	// Exprs are PROJECT output expressions or UPDATE assignments, and
	// VALUES rows are in Rows.
	Exprs []expr.Expr
	Rows  [][]expr.Expr

	// SortKeys order SORT output; for SMJN they are the equi-key slots
	// of each input (EquiLeft/EquiRight below).
	SortKeys []SortKey

	// Join parameters.
	JoinKind string
	Negated  bool
	// JoinPred is the non-equi part of the join condition (may be nil).
	JoinPred expr.Expr
	// EquiLeft/EquiRight are matching slot lists for HSJN/SMJN keys.
	EquiLeft, EquiRight []int
	// SetPred names the set-predicate function folding per-element
	// truth for SUBQ nodes (ANY/ALL/custom).
	SetPred string
	// CorrCols lists the outer columns the right/inner input needs
	// (correlation vector), as refs into the LEFT input's schema plus
	// enclosing correlation.
	CorrCols []ColRef

	// Group parameters: the first GroupCols slots of the input are the
	// grouping key; Aggs computes the remaining outputs.
	GroupCols []int
	Aggs      []*expr.AggCall

	// Distinct for set operations: false means ALL.
	All bool

	// TableFn parameters.
	TableFn *expr.TableFunc
	TFArgs  []expr.Expr

	// RecBoxID links RECREF nodes to their enclosing RECUNION.
	RecBoxID int

	// Limit row count expression.
	LimitExpr expr.Expr

	// DOP is the degree of parallelism of a GATHER exchange: how many
	// worker clones of the input subtree run concurrently. GATHER also
	// reuses SortKeys as its merge keys (order-preserving gather), and
	// REPART reuses GroupCols as its hash partitioning key.
	DOP int

	// TargetCols are the column ordinals written by INSERT/UPDATE.
	TargetCols []int

	// Props are the optimizer's estimated properties.
	Props Props

	// Ext lets DBC-defined operators carry their own parameters.
	Ext map[string]any
}

// SlotOf finds the slot holding a QGM column, or -1.
func (n *Node) SlotOf(qid, ord int) int {
	for i, c := range n.Cols {
		if c.QID == qid && c.Ord == ord {
			return i
		}
	}
	return -1
}

// String renders the plan tree for EXPLAIN.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0, nil)
	return b.String()
}

// RenderAnnotated renders the tree like String, appending annot(n) to
// every node's line — EXPLAIN ANALYZE uses it to print actual execution
// statistics beside the optimizer's estimates.
func RenderAnnotated(n *Node, annot func(*Node) string) string {
	var b strings.Builder
	n.render(&b, 0, annot)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int, annot func(*Node) string) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op)
	switch {
	case n.Table != nil && n.Index != nil:
		fmt.Fprintf(b, " %s via %s(%s)", n.Table.Name, n.Index.Name, n.Index.Method)
	case n.Table != nil:
		fmt.Fprintf(b, " %s", n.Table.Name)
	}
	if n.JoinKind != "" && n.JoinKind != KindRegular {
		fmt.Fprintf(b, " kind=%s", n.JoinKind)
	}
	if n.Negated {
		b.WriteString(" negated")
	}
	for _, p := range n.Preds {
		fmt.Fprintf(b, " [%s]", p)
	}
	if n.JoinPred != nil {
		fmt.Fprintf(b, " on [%s]", n.JoinPred)
	}
	if len(n.SortKeys) > 0 && (n.Op == OpSort || n.Op == OpGather) {
		if n.Op == OpGather {
			b.WriteString(" merge")
		} else {
			b.WriteString(" by")
		}
		for _, k := range n.SortKeys {
			dir := ""
			if k.Desc {
				dir = " desc"
			}
			fmt.Fprintf(b, " #%d%s", k.Slot, dir)
		}
	}
	if n.Op == OpGather && n.DOP > 0 {
		fmt.Fprintf(b, " dop=%d", n.DOP)
	}
	if n.Op == OpRepart && len(n.GroupCols) > 0 {
		b.WriteString(" on")
		for _, s := range n.GroupCols {
			fmt.Fprintf(b, " #%d", s)
		}
	}
	if n.Props.Rows > 0 {
		fmt.Fprintf(b, "  {rows=%.0f cost=%.1f}", n.Props.Rows, n.Props.Cost)
	}
	if annot != nil {
		b.WriteString(annot(n))
	}
	b.WriteString("\n")
	for _, in := range n.Inputs {
		in.render(b, depth+1, annot)
	}
}

// Walk visits the tree preorder.
func Walk(n *Node, f func(*Node) bool) bool {
	if n == nil {
		return true
	}
	if !f(n) {
		return false
	}
	for _, in := range n.Inputs {
		if !Walk(in, f) {
			return false
		}
	}
	return true
}

// ProbeLeaf finds the SCAN whose table a parallel exchange splits into
// morsels: the left-spine leaf of the subtree. Single-input dataflow
// operators descend through their input, joins through their LEFT
// (probe/outer) input — the build side is replicated per worker, which
// is correct for every join kind including outer joins. The optimizer
// gates exchange insertion on this leaf and the executor binds the
// morsel dispenser to it, so an op absent from the descent list (GROUP,
// DISTINCT, LIMIT, VALUES) is a barrier for both; nil means the subtree
// has no splittable leaf.
func ProbeLeaf(n *Node) *Node {
	for n != nil {
		switch n.Op {
		case OpScan:
			return n
		case OpFilter, OpProject, OpAccess, OpSort, OpTemp,
			OpNLJoin, OpHSJoin, OpSMJoin:
			if len(n.Inputs) == 0 {
				return nil
			}
			n = n.Inputs[0]
		default:
			return nil
		}
	}
	return nil
}

// CollectOps returns the multiset of operator names in the tree, for
// plan-shape assertions in tests.
func CollectOps(n *Node) map[string]int {
	out := map[string]int{}
	Walk(n, func(x *Node) bool {
		out[x.Op]++
		return true
	})
	return out
}

// SubplanInfo is the refined payload of an expr.Subplan: the compiled
// plan of a subquery that stayed inside an expression (OR-of-subquery
// predicates, section 7). The QES installs an evaluate-on-demand Run
// closure from it.
type SubplanInfo struct {
	Plan *Node
	// Mode is "SCALAR", "EXISTS" or "IN".
	Mode    string
	Negated bool
	// Lhs is the IN left operand (references outer columns).
	Lhs expr.Expr
	// CorrCols is the correlation vector the subplan needs.
	CorrCols []ColRef
}

// A Compiled plan pairs the operator tree with the query's result
// metadata.
type Compiled struct {
	Root *Node
	// OutputNames are the result column names (from the top box head).
	OutputNames []string
	// OutputTypes are the result column types.
	OutputTypes []datum.TypeID
	// Graph retains the rewritten QGM for EXPLAIN.
	Graph *qgm.Graph
}
