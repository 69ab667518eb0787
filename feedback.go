package starburst

import (
	"math"
	"sync/atomic"

	"repro/internal/optimizer"
	"repro/internal/plan"
)

// Cardinality feedback closes the optimizer's estimation loop: under
// Settings.CardinalityFeedback (off by default) a statement runs
// instrumented, and at statement end the actual row count of each table
// scan is compared with the optimizer's estimate. A scan that diverged by 2x or more folds its actual
// cardinality into the table's observed-cardinality overlays
// (catalog.Table.ObserveCard — bounded, decayed), and the catalog
// version is bumped once for the statement so the plan cache's
// generational invalidation replans every affected statement with the
// corrected estimates.
//
// The cost of the loop is the instrumentation itself: statements run
// the same operators as always, each wrapped in the per-operator stats
// decorator (as under EXPLAIN ANALYZE), plus the capture walk at
// statement end. A fresh ANALYZE clears a table's learned corrections.

// cardDivergence is the estimate-vs-actual ratio at which a scan's
// cardinality is considered wrong enough to learn from. Below it the
// estimate is left alone, which is also what terminates the loop: once
// a replanned statement's estimates track its actuals, no further folds
// (or catalog version bumps) occur.
const cardDivergence = 2.0

// captureCardFeedback folds one finished statement's scan actuals into
// the catalog overlays and reports how many scans were folded. Runs
// after the statement released the admin latch; the overlay store has
// its own synchronization.
func (db *DB) captureCardFeedback(o *observation) int64 {
	if !o.set.CardinalityFeedback || o.instr == nil || o.root == nil {
		return 0
	}
	// A plan that can stop early makes scan actuals an artifact of how
	// many rows the consumer pulled, not of the data; learn nothing.
	early := false
	plan.Walk(o.root, func(n *plan.Node) bool {
		if n.Op == plan.OpLimit {
			early = true
		}
		return !early
	})
	if early {
		return 0
	}
	var folds int64
	plan.Walk(o.root, func(n *plan.Node) bool {
		if n.Op != plan.OpScan || n.Table == nil || n.Table.System {
			return true
		}
		st := o.instr.OpStats(n)
		// Exactly one Open: a re-opened scan (nested-loop inner, recursive
		// fixpoint) accumulates rows across runs and a never-opened one
		// saw no data; neither is a cardinality observation.
		if st == nil || atomic.LoadInt64(&st.Opens) != 1 {
			return true
		}
		// A join filter pushed into the scan drops rows the scan's own
		// predicates passed; the estimate is about the predicates alone.
		actual := float64(atomic.LoadInt64(&st.Rows) + atomic.LoadInt64(&st.JoinFiltered))
		est := math.Max(1, n.Props.Rows)
		a := math.Max(1, actual)
		if a/est < cardDivergence && est/a < cardDivergence {
			return true
		}
		n.Table.ObserveCard(optimizer.ScanPredsKey(n.Preds), actual)
		folds++
		return true
	})
	if folds > 0 {
		// One bump per statement: stale cached plans (compiled against the
		// old estimates) are invalidated generationally and replan on
		// their next use.
		db.cat.BumpVersion()
	}
	return folds
}
