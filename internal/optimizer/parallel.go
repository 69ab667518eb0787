package optimizer

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// This file is the optimizer's parallelism pass: after the serial plan
// is chosen, insertExchanges decides whether intra-query parallelism
// pays and, if so, inserts exchange operators — at most one GATHER per
// statement, placed on the root spine so it is never re-opened per
// outer tuple by a nested-loop inner or TEMP, optionally over a REPART
// when grouping/deduplication must see hash-partitioned inputs.
//
// The pass is cost-gated, not unconditional: exchanges pay goroutine
// and channel overhead (costExchStartup per worker, costExchRowCPU per
// merged row), so only plans scanning enough rows and pages to amortize
// that — the parallelThreshold — are parallelized.

// Exchange cost-model constants, in the same unit as cost.go (one
// simulated page I/O = 1.0).
const (
	// costExchStartup is the per-worker fixed cost of an exchange:
	// goroutine spawn, channel setup, scheduling.
	costExchStartup = 0.5
	// costExchRowCPU is the per-row cost of moving a tuple through the
	// exchange's merge channel (batched, so far below costRowCPU).
	costExchRowCPU = 0.002
)

// defaultParallelThreshold is the minimum estimated base-table row
// count under a plan spine before an exchange is considered.
const defaultParallelThreshold = 512

// SetParallelThreshold overrides the minimum estimated scan
// cardinality for exchange insertion; n <= 0 restores the default.
// Tests use a threshold of 1 to parallelize tiny tables.
func (o *Optimizer) SetParallelThreshold(n int64) {
	o.parThreshold.Store(n)
}

func (o *Optimizer) parallelThreshold() int64 {
	if t := o.parThreshold.Load(); t > 0 {
		return t
	}
	return defaultParallelThreshold
}

// insertExchanges walks the root spine of a chosen plan and inserts at
// most one exchange. Walking only the spine — never join inners or
// subplans — guarantees the gather is opened exactly once per
// statement, so its worker pool cannot be respawned per outer tuple.
func (o *Optimizer) insertExchanges(root *plan.Node) *plan.Node {
	dop := o.cfg.DOP
	if dop <= 1 {
		return root
	}
	return o.spine(root, dop)
}

// spine descends through operators that must stay above the exchange
// (LIMIT, final projections, ACCESS relabels) and places the exchange
// at the highest node whose whole subtree can run per-worker.
func (o *Optimizer) spine(n *plan.Node, dop int) *plan.Node {
	switch n.Op {
	case plan.OpLimit, plan.OpProject, plan.OpFilter, plan.OpAccess, plan.OpTemp:
		// Keep these serial and parallelize below: LIMIT must see the
		// merged stream; a lone PROJECT/FILTER above the exchange costs
		// little and keeps the exchange lower, where more of the tree
		// runs per-worker — except when the whole subtree is eligible,
		// handled by the parallelize attempt first.
		if len(n.Inputs) != 1 {
			return n
		}
		if g := o.parallelize(n, dop); g != nil {
			return g
		}
		n.Inputs[0] = o.spine(n.Inputs[0], dop)
		return n
	case plan.OpSort:
		// SORT parallelizes as sort-per-worker + order-preserving merge
		// in the gather; when its own subtree is not splittable (e.g. a
		// GROUP underneath), something deeper may still be — sorts accept
		// unordered input, so an exchange below is always order-safe.
		if g := o.parallelize(n, dop); g != nil {
			return g
		}
		if len(n.Inputs) == 1 {
			n.Inputs[0] = o.spine(n.Inputs[0], dop)
		}
		return n
	case plan.OpGroup, plan.OpDistinct:
		if g := o.parallelize(n, dop); g != nil {
			return g
		}
		return n
	case plan.OpScan, plan.OpNLJoin, plan.OpHSJoin, plan.OpSMJoin:
		if g := o.parallelize(n, dop); g != nil {
			return g
		}
		return n
	default:
		// DML, set operations, recursion, subquery application, CHOOSE,
		// VALUES, index scans: stay serial.
		return n
	}
}

// parallelize attempts to wrap subtree n in an exchange: it checks
// that every operator under n can run cloned per-worker, that the
// probe-side scan leaf is splittable and big enough to pay for the
// exchange, and then builds GATHER(n) — inserting a REPART below
// GROUP/DISTINCT so each worker sees complete key groups, and merge
// keys on the gather when n is sorted. Returns nil when n must stay
// serial.
func (o *Optimizer) parallelize(n *plan.Node, dop int) *plan.Node {
	if !subtreeParallelSafe(n) {
		return nil
	}
	switch n.Op {
	case plan.OpGroup, plan.OpDistinct:
		// The morsel-splittable leaf must sit below the REPART that will
		// be inserted under this node — that subtree is what the repart
		// producers clone, so probe it, not n itself.
		child := n.Inputs[0]
		leaf := plan.ProbeLeaf(child)
		if leaf == nil || !o.leafEligible(leaf) {
			return nil
		}
		if n.Op == plan.OpGroup && len(n.GroupCols) == 0 {
			// Scalar aggregate: grand totals cannot be split by worker
			// without a combine phase; gather below the GROUP instead,
			// parallelizing the input scan.
			n.Inputs[0] = gatherNode(child, dop, nil)
			return n
		}
		// GATHER(op(REPART(input))): hash-partition the input on the
		// grouping key (all columns for DISTINCT) so each worker sees
		// every row of its groups and per-worker results concatenate
		// correctly.
		keys := n.GroupCols
		if n.Op == plan.OpDistinct {
			keys = make([]int, len(child.Cols))
			for i := range keys {
				keys[i] = i
			}
		}
		n.Inputs[0] = repartNode(child, keys)
		return gatherNode(n, dop, nil)
	case plan.OpSort:
		// Workers each sort their partition; the gather merge-preserves
		// the order, reproducing the serial output exactly.
		leaf := plan.ProbeLeaf(n)
		if leaf == nil || !o.leafEligible(leaf) {
			return nil
		}
		return gatherNode(n, dop, n.SortKeys)
	default:
		leaf := plan.ProbeLeaf(n)
		if leaf == nil || !o.leafEligible(leaf) {
			return nil
		}
		var merge []plan.SortKey
		if len(n.Props.Order) > 0 {
			merge = n.Props.Order
		}
		return gatherNode(n, dop, merge)
	}
}

// subtreeParallelSafe reports whether every operator of the subtree can
// be cloned into concurrent workers: only dataflow operators, with no
// DML (a statement's writes append to one transaction write log and
// roll back to one savepoint as a unit), no recursion, no runtime
// CHOOSE and no subqueries — neither SUBQ nodes nor expression
// subplans. The executor could run a subquery per worker (every worker
// builds its own apply operator and inner runner), but each worker's
// cache would then run the inner once per correlation value it meets,
// a cost this pass does not price; so subqueries stay serial.
func subtreeParallelSafe(n *plan.Node) bool {
	safe := true
	plan.Walk(n, func(m *plan.Node) bool {
		switch m.Op {
		case plan.OpScan, plan.OpFilter, plan.OpProject, plan.OpAccess, plan.OpSort,
			plan.OpTemp, plan.OpNLJoin, plan.OpHSJoin, plan.OpSMJoin, plan.OpValues,
			plan.OpGroup, plan.OpDistinct, plan.OpLimit:
		default:
			safe = false
			return false
		}
		for _, p := range m.Preds {
			if expr.HasSubplan(p) {
				safe = false
				return false
			}
		}
		if m.JoinPred != nil && expr.HasSubplan(m.JoinPred) {
			safe = false
			return false
		}
		for _, e := range m.Exprs {
			if expr.HasSubplan(e) {
				safe = false
				return false
			}
		}
		if m.LimitExpr != nil && expr.HasSubplan(m.LimitExpr) {
			safe = false
			return false
		}
		return true
	})
	return safe
}

// leafEligible applies the cost gate: the scan's table must support
// page-range scans, span multiple pages, and be estimated big enough
// that per-worker exchange startup and per-row channel costs are
// amortized.
func (o *Optimizer) leafEligible(leaf *plan.Node) bool {
	if leaf.Table == nil || leaf.Table.Rel == nil {
		return false
	}
	if _, ok := leaf.Table.Rel.(storage.PageRangeScanner); !ok {
		return false
	}
	rows, pages := tableStats(leaf.Table)
	return rows >= float64(o.parallelThreshold()) && pages >= 2
}

// gatherNode wraps n in a GATHER exchange with the given DOP and
// optional merge keys (order-preserving gather).
func gatherNode(n *plan.Node, dop int, merge []plan.SortKey) *plan.Node {
	props := n.Props
	// Parallel speedup on the child's cost, paid back by exchange
	// startup and per-row merge CPU. The estimate is deliberately
	// simple: its job is EXPLAIN legibility, not plan choice (the
	// exchange is inserted after the serial plan is chosen).
	props.Cost = n.Props.Cost/float64(dop) +
		float64(dop)*costExchStartup + n.Props.Rows*costExchRowCPU
	if merge == nil {
		props.Order = nil
	}
	return &plan.Node{
		Op:       plan.OpGather,
		Inputs:   []*plan.Node{n},
		Cols:     n.Cols,
		Types:    n.Types,
		SortKeys: merge,
		DOP:      dop,
		Props:    props,
	}
}

// repartNode wraps n in a hash REPART exchange on the given key slots.
func repartNode(n *plan.Node, keys []int) *plan.Node {
	props := n.Props
	props.Cost += n.Props.Rows * costExchRowCPU
	props.Order = nil
	return &plan.Node{
		Op:        plan.OpRepart,
		Inputs:    []*plan.Node{n},
		Cols:      n.Cols,
		Types:     n.Types,
		GroupCols: append([]int(nil), keys...),
		Props:     props,
	}
}
