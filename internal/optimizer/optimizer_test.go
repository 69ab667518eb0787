package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/verify"
)

// testCatalog builds n tables T0..Tn-1 with columns (K INT, V INT, S
// STRING) and the given row counts (statistics are faked, no data).
func testCatalog(t *testing.T, rowCounts ...int64) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for i, rows := range rowCounts {
		tbl, err := c.CreateTable(fmt.Sprintf("T%d", i), []catalog.Column{
			{Name: "K", Type: datum.TInt},
			{Name: "V", Type: datum.TInt},
			{Name: "S", Type: datum.TString},
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		tbl.Stats.Rows = rows
		tbl.Stats.Pages = rows/64 + 1
		tbl.Stats.ColCard = []int64{rows, rows / 10, 5}
		tbl.Stats.ColMin = []datum.Value{datum.NewInt(0), datum.NewInt(0), datum.Null}
		tbl.Stats.ColMax = []datum.Value{datum.NewInt(rows), datum.NewInt(rows / 10), datum.Null}
	}
	return c
}

func optimize(t *testing.T, c *catalog.Catalog, src string, tune func(*Optimizer)) *plan.Compiled {
	t.Helper()
	return optimizeConfig(t, c, src, tune, Config{})
}

// optimizeConfig is optimize with the per-compilation configuration cfg.
func optimizeConfig(t *testing.T, c *catalog.Catalog, src string, tune func(*Optimizer), cfg Config) *plan.Compiled {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.TranslateStatement(c, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite.NewDefaultEngine().Rewrite(g, rewrite.Options{}); err != nil {
		t.Fatal(err)
	}
	o := New(c)
	if tune != nil {
		tune(o)
	}
	compiled, err := o.OptimizeConfig(g, nil, cfg)
	if err != nil {
		t.Fatalf("optimize %q: %v", src, err)
	}
	return compiled
}

// TestSTARCountUnder20 verifies the paper's economy claim (E10): the
// complete base strategy repertoire — table/index access, derived
// tables, recursive references, three join methods, glue, and a plan
// rule per operation type — fits in under 20 rules.
func TestSTARCountUnder20(t *testing.T) {
	g := NewGenerator(BuiltinSTARs())
	n := g.CountAlternatives()
	if n >= 20 {
		t.Fatalf("STAR alternatives = %d, paper claims under 20", n)
	}
	if n < 10 {
		t.Fatalf("suspiciously few rules (%d) — strategies missing?", n)
	}
	t.Logf("built-in STAR alternatives: %d", n)
}

// TestSTARCoverage: the rule array names cover access paths, join
// methods, glue, and every built-in operation kind.
func TestSTARCoverage(t *testing.T) {
	g := NewGenerator(BuiltinSTARs())
	have := map[string]bool{}
	for _, s := range g.STARs() {
		for _, a := range s.Alternatives {
			have[s.Name+"/"+a.Name] = true
		}
	}
	for _, want := range []string{
		"ACCESS/TableScan", "ACCESS/IndexScan", "ACCESS/Derived", "ACCESS/RecRef",
		"JOIN/NestedLoop", "JOIN/HashJoin", "JOIN/MergeJoin",
		"GLUE/AlreadyOrdered", "GLUE/AddSort",
		"PLAN/Select", "PLAN/GroupBy", "PLAN/SetOp", "PLAN/OuterJoin",
		"PLAN/RecUnion", "PLAN/Values", "PLAN/TableFn", "PLAN/Choose", "PLAN/DML",
	} {
		if !have[want] {
			t.Errorf("missing STAR alternative %s", want)
		}
	}
}

func TestAccessPathSelection(t *testing.T) {
	// E13: with a highly selective predicate and an index, ISCAN wins;
	// an unselective predicate keeps the scan.
	c := testCatalog(t, 10000)
	if _, err := c.CreateIndex("T0_K", "T0", []string{"K"}, "", true); err != nil {
		t.Fatal(err)
	}
	compiled := optimize(t, c, "SELECT v FROM t0 WHERE k = 5", nil)
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpIndex] != 1 {
		t.Fatalf("selective equality should use the index:\n%s", compiled.Root)
	}
	// Unselective range: scan.
	compiled = optimize(t, c, "SELECT v FROM t0 WHERE k >= 0", nil)
	ops = plan.CollectOps(compiled.Root)
	if ops[plan.OpScan] != 1 {
		t.Fatalf("unselective range should scan:\n%s", compiled.Root)
	}
}

func TestIndexRangeSarg(t *testing.T) {
	c := testCatalog(t, 100000)
	if _, err := c.CreateIndex("T0_K", "T0", []string{"K"}, "", false); err != nil {
		t.Fatal(err)
	}
	compiled := optimize(t, c, "SELECT v FROM t0 WHERE k >= 10 AND k < 20", nil)
	var iscan *plan.Node
	plan.Walk(compiled.Root, func(n *plan.Node) bool {
		if n.Op == plan.OpIndex {
			iscan = n
		}
		return true
	})
	if iscan == nil {
		t.Fatalf("narrow range must use the index:\n%s", compiled.Root)
	}
	if len(iscan.LoVals) == 0 || len(iscan.HiVals) == 0 {
		t.Error("range bounds missing")
	}
	// The strict < bound must be re-checked as a residual.
	found := false
	for _, p := range iscan.Preds {
		if strings.Contains(p.String(), "<") {
			found = true
		}
	}
	if !found {
		t.Errorf("strict bound must remain residual: %v", iscan.Preds)
	}
}

func TestJoinMethodSelection(t *testing.T) {
	// Large equijoin: hash or merge join beats nested loops.
	c := testCatalog(t, 20000, 20000)
	compiled := optimize(t, c, "SELECT a.v FROM t0 a, t1 b WHERE a.k = b.k", nil)
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpHSJoin]+ops[plan.OpSMJoin] != 1 {
		t.Fatalf("large equijoin should use hash/merge join:\n%s", compiled.Root)
	}
	// Non-equi join: nested loops is the only applicable method.
	compiled = optimize(t, c, "SELECT a.v FROM t0 a, t1 b WHERE a.k < b.k", nil)
	ops = plan.CollectOps(compiled.Root)
	if ops[plan.OpNLJoin] != 1 {
		t.Fatalf("non-equi join needs NLJN:\n%s", compiled.Root)
	}
}

func TestGlueSortInsertion(t *testing.T) {
	// E12: force merge join by removing the competing methods; the glue
	// STAR must insert SORTs on both inputs.
	c := testCatalog(t, 5000, 5000)
	compiled := optimize(t, c, "SELECT a.v FROM t0 a, t1 b WHERE a.k = b.k", func(o *Optimizer) {
		o.Generator().RemoveAlternative("JOIN", "NestedLoop")
		o.Generator().RemoveAlternative("JOIN", "HashJoin")
	})
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpSMJoin] != 1 {
		t.Fatalf("merge join expected:\n%s", compiled.Root)
	}
	if ops[plan.OpSort] < 2 {
		t.Fatalf("glue must add sorts for merge join inputs:\n%s", compiled.Root)
	}
}

func TestInterestingOrderAvoidsSort(t *testing.T) {
	// With ordered B-tree indexes on the join keys and selective range
	// predicates (so the index scans win on access cost), merge join
	// can use index order instead of sorting — interesting orders keep
	// the ordered access plans alive through pruning, and the glue STAR
	// picks them instead of adding SORTs. A full unclustered index scan
	// would (correctly) lose to scan+sort, so the ranges matter.
	c := testCatalog(t, 5000, 5000)
	c.CreateIndex("T0_K", "T0", []string{"K"}, "", false)
	c.CreateIndex("T1_K", "T1", []string{"K"}, "", false)
	compiled := optimize(t, c,
		"SELECT a.v FROM t0 a, t1 b WHERE a.k = b.k AND a.k >= 0 AND a.k <= 50 AND b.k >= 0 AND b.k <= 50",
		func(o *Optimizer) {
			o.Generator().RemoveAlternative("JOIN", "NestedLoop")
			o.Generator().RemoveAlternative("JOIN", "HashJoin")
		})
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpSMJoin] != 1 {
		t.Fatalf("merge join expected:\n%s", compiled.Root)
	}
	if ops[plan.OpSort] != 0 {
		t.Fatalf("index order should eliminate sorts:\n%s", compiled.Root)
	}
	if ops[plan.OpIndex] != 2 {
		t.Fatalf("both inputs should use ordered index scans:\n%s", compiled.Root)
	}
}

func TestJoinEnumeratorOrdering(t *testing.T) {
	// E11: with very different table sizes, the enumerator should put
	// the small filtered table on the outer/build-effective side such
	// that total cost beats the naive order. We check it found *a* plan
	// for a 5-way chain and that all five quantifiers are joined.
	c := testCatalog(t, 100, 1000, 10000, 100, 50)
	q := `SELECT a.v FROM t0 a, t1 b, t2 c, t3 d, t4 e
		WHERE a.k = b.k AND b.k = c.k AND c.k = d.k AND d.k = e.k`
	compiled := optimize(t, c, q, nil)
	joins := 0
	plan.Walk(compiled.Root, func(n *plan.Node) bool {
		switch n.Op {
		case plan.OpNLJoin, plan.OpHSJoin, plan.OpSMJoin:
			joins++
		}
		return true
	})
	if joins != 4 {
		t.Fatalf("5-way join needs 4 join nodes, got %d:\n%s", joins, compiled.Root)
	}
}

func TestBushyVsLeftDeep(t *testing.T) {
	// Composite inners: bushy enumeration may find plans left-deep
	// cannot; at minimum it must not be worse.
	c := testCatalog(t, 1000, 1000, 1000, 1000)
	q := `SELECT a.v FROM t0 a, t1 b, t2 c, t3 d
		WHERE a.k = b.k AND c.k = d.k AND b.v = c.v`
	leftDeep := optimize(t, c, q, nil)
	bushy := optimize(t, c, q, func(o *Optimizer) { o.AllowBushy = true })
	if bushy.Root.Props.Cost > leftDeep.Root.Props.Cost*1.0001 {
		t.Errorf("bushy (%0.1f) must not cost more than left-deep (%0.1f)",
			bushy.Root.Props.Cost, leftDeep.Root.Props.Cost)
	}
}

func TestCartesianProductHandling(t *testing.T) {
	// Disconnected sets must still be plannable (fallback), with or
	// without the switch.
	c := testCatalog(t, 10, 10)
	compiled := optimize(t, c, "SELECT a.v FROM t0 a, t1 b", nil)
	if compiled.Root == nil {
		t.Fatal("cartesian fallback failed")
	}
	compiled = optimize(t, c, "SELECT a.v FROM t0 a, t1 b", func(o *Optimizer) { o.AllowCartesian = true })
	if compiled.Root == nil {
		t.Fatal("explicit cartesian failed")
	}
}

func TestImpliedPredicates(t *testing.T) {
	// a.k = b.k and b.k = c.k imply a.k = c.k, giving the enumerator a
	// direct a-c join edge; the (a,c) pair must be considered connected.
	preds := []expr.Expr{
		&expr.Cmp{Op: expr.OpEq, L: expr.NewCol(1, 0, "a.k", datum.TInt), R: expr.NewCol(2, 0, "b.k", datum.TInt)},
		&expr.Cmp{Op: expr.OpEq, L: expr.NewCol(2, 0, "b.k", datum.TInt), R: expr.NewCol(3, 0, "c.k", datum.TInt)},
	}
	implied := impliedEqualities(preds)
	if len(implied) != 1 {
		t.Fatalf("implied = %d, want 1 (a.k = c.k)", len(implied))
	}
	s := implied[0].String()
	if !strings.Contains(s, "a.k") || !strings.Contains(s, "c.k") {
		t.Errorf("implied pred = %s", s)
	}
	// No duplicates of existing pairs.
	preds = append(preds, implied...)
	if again := impliedEqualities(preds); len(again) != 0 {
		t.Errorf("re-derivation must be empty, got %v", again)
	}
}

func TestRankPruning(t *testing.T) {
	// MaxRank 1 prunes the IndexScan (rank 2) and MergeJoin (rank 2)
	// alternatives.
	c := testCatalog(t, 10000)
	c.CreateIndex("T0_K", "T0", []string{"K"}, "", true)
	compiled := optimize(t, c, "SELECT v FROM t0 WHERE k = 5", func(o *Optimizer) {
		o.Generator().MaxRank = 1
	})
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpIndex] != 0 {
		t.Fatalf("rank pruning must drop index scans:\n%s", compiled.Root)
	}
}

func TestSearchStrategySwappable(t *testing.T) {
	// The search strategy is orthogonal: swapping it must not change
	// correctness (cheapest may differ, plan must exist).
	c := testCatalog(t, 1000, 1000)
	compiled := optimize(t, c, "SELECT a.v FROM t0 a, t1 b WHERE a.k = b.k", func(o *Optimizer) {
		o.Generator().Strategy = RankOrder{}
	})
	if compiled.Root == nil {
		t.Fatal("rank-ordered search failed")
	}
}

func TestDBCJoinMethodSTAR(t *testing.T) {
	// E10/E14 extensibility: a DBC adds a new join method as one STAR
	// alternative, without touching the evaluator or search strategy.
	// The toy "FakeJoin" reports tiny cost, so the optimizer picks it
	// for both joins. It ignores the pricing hint (Args.Kept) and builds
	// its node at once, where the built-in alternatives offer priced
	// candidates; Evaluate adds FakeJoin's node to those offers, and the
	// enumerator settles them all in evaluation order.
	c := testCatalog(t, 1000, 1000, 1000)
	seen := false
	compiled := optimize(t, c, "SELECT a.v FROM t0 a, t1 b, t2 c WHERE a.k = b.k AND b.v = c.v", func(o *Optimizer) {
		o.Generator().AddAlternative("JOIN", &Alternative{
			Name: "FakeJoin",
			Build: func(ctx *Ctx, a Args) ([]*plan.Node, error) {
				seen = true
				l, r := cheapest(a.Left), cheapest(a.Right)
				cols, types := slices.Concat(l.Cols, r.Cols), slices.Concat(l.Types, r.Types)
				return []*plan.Node{{
					Op: "FAKEJOIN", Inputs: []*plan.Node{l, r},
					Cols: cols, Types: types,
					JoinPred: expr.AndAll(a.Preds),
					Props:    plan.Props{Rows: 1, Cost: 0.001},
				}}, nil
			},
		})
	})
	if !seen {
		t.Fatal("DBC join STAR never evaluated")
	}
	ops := plan.CollectOps(compiled.Root)
	if ops["FAKEJOIN"] != 2 {
		t.Fatalf("cheap DBC join method must win:\n%s", compiled.Root)
	}
}

func TestSpatialAccessMethodRouting(t *testing.T) {
	// E21: register an R-tree, index (X, Y), and check a window query
	// routes to the spatial index while a half-window still works.
	c := catalog.New()
	c.Storage.RegisterAccessMethod(storage.RTreeMethod{})
	tbl, err := c.CreateTable("PTS", []catalog.Column{
		{Name: "ID", Type: datum.TInt},
		{Name: "X", Type: datum.TFloat},
		{Name: "Y", Type: datum.TFloat},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Stats.Rows = 100000
	tbl.Stats.Pages = 2000
	tbl.Stats.ColCard = []int64{100000, 1000, 1000}
	tbl.Stats.ColMin = make([]datum.Value, 3)
	tbl.Stats.ColMax = make([]datum.Value, 3)
	for i := range tbl.Stats.ColMin {
		tbl.Stats.ColMin[i], tbl.Stats.ColMax[i] = datum.Null, datum.Null
	}
	if _, err := c.CreateIndex("PTS_XY", "PTS", []string{"X", "Y"}, "RTREE", false); err != nil {
		t.Fatal(err)
	}
	compiled := optimize(t, c,
		"SELECT id FROM pts WHERE x >= 1 AND x <= 2 AND y >= 3 AND y <= 4", nil)
	var iscan *plan.Node
	plan.Walk(compiled.Root, func(n *plan.Node) bool {
		if n.Op == plan.OpIndex {
			iscan = n
		}
		return true
	})
	if iscan == nil || iscan.Index.Method != "RTREE" {
		t.Fatalf("window query must route to the R-tree:\n%s", compiled.Root)
	}
	// A predicate with no bounds on either dimension cannot use it.
	compiled = optimize(t, c, "SELECT id FROM pts WHERE id = 5", nil)
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpIndex] != 0 {
		t.Fatalf("non-spatial predicate must not use the R-tree:\n%s", compiled.Root)
	}
}

func TestChooseEliminatedByCost(t *testing.T) {
	// E22: the optimizer picks the cheapest CHOOSE alternative.
	c := testCatalog(t, 1000)
	stmt, _ := sql.Parse("SELECT k FROM t0 WHERE v = 1")
	g, err := qgm.TranslateStatement(c, stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Build an expensive alternative: a clone whose extra predicate
	// "k <> -12345" barely changes cardinality (so downstream estimates
	// stay equal) but adds per-row evaluation cost. The marker constant
	// identifies which alternative the optimizer kept.
	alt := rewrite.CloneSubgraph(g, g.Top)
	kCol := alt.Head[0].Expr
	alt.Preds = append(alt.Preds, &qgm.Predicate{
		Expr: &expr.Cmp{Op: expr.OpNe, L: kCol, R: expr.NewConst(datum.NewInt(-12345))},
	})
	ch := rewrite.WrapChoose(g, g.Top, alt)
	g.Top = ch
	g.GC()
	if err := verify.Graph(g); err != nil {
		t.Fatal(err)
	}
	o := New(c)
	compiled, err := o.OptimizeConfig(g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	text := compiled.Root.String()
	if strings.Contains(text, "-12345") {
		t.Fatalf("optimizer picked the expensive CHOOSE alternative:\n%s", text)
	}
}

func TestSelectivityModel(t *testing.T) {
	c := testCatalog(t, 1000)
	o := New(c)
	stmt, _ := sql.Parse("SELECT k FROM t0")
	g, _ := qgm.TranslateStatement(c, stmt)
	o.graph = g
	kCol := g.Top.Head[0].Expr.(*expr.Col)

	eq := &expr.Cmp{Op: expr.OpEq, L: kCol, R: expr.NewConst(datum.NewInt(5))}
	if s := o.selectivity(eq); s != 1.0/1000 {
		t.Errorf("eq selectivity = %v, want 1/1000", s)
	}
	half := &expr.Cmp{Op: expr.OpLt, L: kCol, R: expr.NewConst(datum.NewInt(500))}
	if s := o.selectivity(half); s < 0.4 || s > 0.6 {
		t.Errorf("range interpolation = %v, want ~0.5", s)
	}
	notEq := &expr.Not{E: eq}
	if s := o.selectivity(notEq); s < 0.99 {
		t.Errorf("not-eq selectivity = %v", s)
	}
	or := &expr.Or{L: eq, R: eq}
	if s := o.selectivity(or); s <= o.selectivity(eq) || s > 2*o.selectivity(eq) {
		t.Errorf("or selectivity = %v", s)
	}
	tautology := expr.NewConst(datum.NewBool(true))
	if o.selectivity(tautology) != 1 {
		t.Error("TRUE selectivity")
	}
	contradiction := expr.NewConst(datum.NewBool(false))
	if o.selectivity(contradiction) != 0 {
		t.Error("FALSE selectivity")
	}
}

func TestPropsOrderSatisfies(t *testing.T) {
	p := plan.Props{Order: []plan.SortKey{{Slot: 0}, {Slot: 1, Desc: true}}}
	if !p.OrderSatisfies([]plan.SortKey{{Slot: 0}}) {
		t.Error("prefix satisfied")
	}
	if !p.OrderSatisfies(nil) {
		t.Error("empty requirement")
	}
	if p.OrderSatisfies([]plan.SortKey{{Slot: 1}}) {
		t.Error("wrong first key")
	}
	if p.OrderSatisfies([]plan.SortKey{{Slot: 0}, {Slot: 1}}) {
		t.Error("desc mismatch")
	}
	if p.OrderSatisfies([]plan.SortKey{{Slot: 0}, {Slot: 1, Desc: true}, {Slot: 2}}) {
		t.Error("longer than available")
	}
}

func TestPrunePlansKeepsInterestingOrders(t *testing.T) {
	cheap := &plan.Node{Op: "A", Props: plan.Props{Cost: 10}}
	orderedExpensive := &plan.Node{Op: "B", Props: plan.Props{Cost: 20, Order: []plan.SortKey{{Slot: 0}}}}
	dominated := &plan.Node{Op: "C", Props: plan.Props{Cost: 30}}
	out := prunePlans([]*plan.Node{cheap, orderedExpensive, dominated}, nil)
	if len(out) != 2 {
		t.Fatalf("pruned to %d, want 2 (cheapest + ordered)", len(out))
	}
	// Identical plans: exactly one survives.
	a := &plan.Node{Op: "X", Props: plan.Props{Cost: 5}}
	b := &plan.Node{Op: "Y", Props: plan.Props{Cost: 5}}
	out = prunePlans([]*plan.Node{a, b}, nil)
	if len(out) != 1 {
		t.Fatalf("tie pruning kept %d", len(out))
	}
}

// prunePlans settles plans built in this order: the survivors of
// pruning, in order.
func prunePlans(plans []*plan.Node, eq *equalities) []*plan.Node {
	c := Candidates{eq: eq}
	c.add(plans)
	out, err := c.settle(nil)
	if err != nil {
		panic(err)
	}
	return out
}

// TestDominatesMirrorsPrunePlans: skipping, unoffered, every candidate
// that the pending ones dominate — Evaluate adds each alternative's
// candidates to them before the next alternative runs — leaves the
// survivors and their order exactly as offering them all would. Small
// integer costs make ties common; the plans come in both layouts of a
// two-iterator set, compared with and without an applied equality
// between the iterators' columns.
func TestDominatesMirrorsPrunePlans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orders := [][]plan.SortKey{nil, {{Slot: 0}}, {{Slot: 1}}, {{Slot: 0}, {Slot: 1}}, {{Slot: 0, Desc: true}}}
	layouts := [][]plan.ColRef{{{QID: 1}, {QID: 2}}, {{QID: 2}, {QID: 1}}}
	mk := func() *plan.Node {
		return &plan.Node{Cols: layouts[rng.Intn(2)], Props: plan.Props{Cost: float64(rng.Intn(5)), Order: orders[rng.Intn(len(orders))]}}
	}
	joined := testEqualities().of(0b11)
	var none *Candidates
	for trial := 0; trial < 10000; trial++ {
		eq := []*equalities{nil, joined}[trial%2]
		kept := &Candidates{eq: eq}
		var eager []*plan.Node
		for i := rng.Intn(4); i > 0; i-- {
			eager = append(eager, mk())
		}
		kept.add(eager)
		for alt := 1 + rng.Intn(3); alt > 0; alt-- {
			var built []*plan.Node
			for i := 1 + rng.Intn(3); i > 0; i-- {
				p := mk()
				eager = append(eager, p)
				if none.Dominates(p.Props, p.Cols) {
					t.Fatal("no pricing hint must dominate nothing")
				}
				if !kept.Dominates(p.Props, p.Cols) {
					built = append(built, p)
				}
			}
			kept.add(built)
		}
		got, err := kept.settle(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := prunePlans(eager, eq); !slices.Equal(got, want) {
			t.Fatalf("trial %d: priced survivors %v, eager %v", trial, props(got), props(want))
		}
	}
}

// TestOfferedMergeJoinsKeepPricedProps: a merge join is offered at the
// price GLUE's prices give and, if it survives, built over the inputs
// GLUE then builds; every SMJN must carry the props those inputs give.
// A JOIN alternative that builds nothing sees, as its operands, the
// survivors of every set a larger one is joined from; the chosen plan
// holds the full set's. Indexes on K and V give GLUE ordered inputs
// to choose from besides SORTs.
func TestOfferedMergeJoinsKeepPricedProps(t *testing.T) {
	c := testCatalog(t, 100, 300, 1000, 50)
	for i := 0; i < 4; i++ {
		for _, col := range []string{"K", "V"} {
			if _, err := c.CreateIndex(fmt.Sprintf("T%d_%s", i, col), fmt.Sprintf("T%d", i), []string{col}, "", false); err != nil {
				t.Fatal(err)
			}
		}
	}
	smjns := 0
	check := func(root *plan.Node) {
		plan.Walk(root, func(n *plan.Node) bool {
			if n.Op != plan.OpSMJoin {
				return true
			}
			smjns++
			l, r := n.Inputs[0].Props, n.Inputs[1].Props
			want := (&Optimizer{}).costMergeJoin(l, r, 1, n.SortKeys)
			if n.Props.Cost != want.Cost || !slices.Equal(n.Props.Order, n.SortKeys) {
				t.Fatalf("SMJN props %+v over inputs %+v and %+v, want cost %v ordered on %v:\n%s",
					n.Props, l, r, want.Cost, n.SortKeys, n)
			}
			return true
		})
	}
	for _, q := range []string{
		"SELECT a.v FROM t0 a, t1 b WHERE a.k = b.k",
		"SELECT a.v FROM t0 a, t1 b, t2 c WHERE a.k = b.k AND b.v = c.v",
		"SELECT a.v FROM t0 a, t1 b, t2 c, t3 d WHERE a.k = b.k AND b.k = c.k AND c.v = d.v ORDER BY 1",
		"SELECT a.v FROM t0 a, t1 b, t2 c, t3 d WHERE a.v = b.v AND b.k = c.k AND a.k = d.v",
	} {
		for _, only := range []bool{false, true} {
			root := optimize(t, c, q, func(o *Optimizer) {
				if only {
					o.Generator().RemoveAlternative("JOIN", "NestedLoop")
					o.Generator().RemoveAlternative("JOIN", "HashJoin")
				}
				o.Generator().AddAlternative("JOIN", &Alternative{Name: "Inspect",
					Build: func(ctx *Ctx, a Args) ([]*plan.Node, error) {
						for _, p := range slices.Concat(a.Left, a.Right) {
							check(p)
						}
						return nil, nil
					}})
			}).Root
			check(root)
		}
	}
	if smjns < 50 {
		t.Fatalf("checked %d merge joins, want at least 50", smjns)
	}
}

// testEqualities equates, as join predicates over iterators 1, 2 and 3
// (bits 0, 1 and 2), 1.0 = 2.0, 2.0 = 1.1 and 1.1 = 3.0.
func testEqualities() *setEqualities {
	col := func(qid, ord int) *expr.Col { return expr.NewCol(qid, ord, "", datum.TInt) }
	se := &setEqualities{}
	for _, p := range [][2]*expr.Col{{col(1, 0), col(2, 0)}, {col(2, 0), col(1, 1)}, {col(1, 1), col(3, 0)}} {
		se.add(&expr.Cmp{Op: expr.OpEq, L: p[0], R: p[1]}, 1<<(p[0].QID-1)|1<<(p[1].QID-1))
	}
	return se
}

// TestEqualitiesOrderSatisfies: orders compare modulo the equalities
// of the iterator set, through each plan's own layout. With a = 1, b = 2
// and c = 3, set {a, b} equates a.k, b.k and a.v; {a, c} only a.v and
// c.k; and {a} nothing, although the query equates a.k and a.v.
func TestEqualitiesOrderSatisfies(t *testing.T) {
	eqs := testEqualities()
	ak, av, bk, bv := plan.ColRef{QID: 1}, plan.ColRef{QID: 1, Ord: 1}, plan.ColRef{QID: 2}, plan.ColRef{QID: 2, Ord: 1}
	ck := plan.ColRef{QID: 3}
	ab, ba, ac := []plan.ColRef{ak, av, bk, bv}, []plan.ColRef{bk, bv, ak, av}, []plan.ColRef{ak, av, ck}
	asc := func(slots ...int) []plan.SortKey {
		out := make([]plan.SortKey, len(slots))
		for i, s := range slots {
			out[i] = plan.SortKey{Slot: s}
		}
		return out
	}
	desc := func(slot int) []plan.SortKey { return []plan.SortKey{{Slot: slot, Desc: true}} }
	if eqs.of(0b001) != nil {
		t.Fatal("a singleton set has applied no equality")
	}
	for _, c := range []struct {
		name  string
		set   uint32
		have  []plan.SortKey
		hcols []plan.ColRef
		req   []plan.SortKey
		rcols []plan.ColRef
		want  bool
	}{
		{"equal column", 0b011, asc(0), ab, asc(2), ab, true},
		{"duplicate-class req", 0b011, asc(0), ab, asc(2, 0, 1), ab, true},
		{"duplicate-class have", 0b011, asc(0, 2, 3), ab, asc(1, 3), ab, true},
		{"longer req", 0b011, asc(0), ab, asc(2, 3), ab, false},
		{"other class", 0b011, asc(3), ab, asc(0), ab, false},
		{"desc mismatch", 0b011, desc(0), ab, asc(2), ab, false},
		{"desc match", 0b011, desc(0), ab, desc(2), ab, true},
		{"two layouts", 0b011, asc(0), ab, asc(0), ba, true},
		{"two layouts, other class", 0b011, asc(3), ab, asc(3), ba, false},
		{"two layouts, no equalities", 0, asc(0), ab, asc(0), ba, false},
		{"two layouts, one column", 0, asc(0), ab, asc(2), ba, true},
		{"singleton set", 0b001, asc(0), ab, asc(1), ab, false},
		{"class without a.k", 0b101, asc(0), ac, asc(1), ac, false},
		{"class of a.v and c.k", 0b101, asc(1), ac, asc(2), ac, true},
		{"empty req", 0, nil, ab, nil, ab, true},
		{"empty have", 0b011, nil, ab, asc(0), ab, false},
	} {
		if got := eqs.of(c.set).orderSatisfies(c.have, c.hcols, c.req, c.rcols); got != c.want {
			t.Errorf("%s: orderSatisfies(%v, %v) = %v, want %v", c.name, c.have, c.req, got, c.want)
		}
	}

	// With no equalities and one layout, it is OrderSatisfies for every
	// pair of orders without a repeated slot.
	var orders [][]plan.SortKey
	var gen func(prefix []plan.SortKey)
	gen = func(prefix []plan.SortKey) {
		orders = append(orders, prefix)
		if len(prefix) == 3 {
			return
		}
		for slot := 0; slot < 3; slot++ {
			if !slices.ContainsFunc(prefix, func(k plan.SortKey) bool { return k.Slot == slot }) {
				gen(append(slices.Clone(prefix), plan.SortKey{Slot: slot}))
				gen(append(slices.Clone(prefix), plan.SortKey{Slot: slot, Desc: true}))
			}
		}
	}
	gen(nil)
	var none *equalities
	for _, have := range orders {
		for _, req := range orders {
			p := plan.Props{Order: have}
			if got, want := none.orderSatisfies(have, ab, req, ab), p.OrderSatisfies(req); got != want {
				t.Fatalf("nil equalities: %v satisfies %v = %v, OrderSatisfies says %v", have, req, got, want)
			}
		}
	}
}

// TestEquiKeysMemoFollowsArgs: the equi-join memo a JOIN evaluation
// shares answers only for the Args it analyzed; an alternative that
// evaluates JOIN on a modified copy of its Args is analyzed afresh.
func TestEquiKeysMemoFollowsArgs(t *testing.T) {
	l := &plan.Node{Cols: []plan.ColRef{{QID: 1, Ord: 0}, {QID: 1, Ord: 1}}, Props: plan.Props{Cost: 1}}
	r := &plan.Node{Cols: []plan.ColRef{{QID: 2, Ord: 0}}, Props: plan.Props{Cost: 1}}
	eq := &expr.Cmp{Op: expr.OpEq, L: expr.NewCol(1, 1, "a.v", datum.TInt), R: expr.NewCol(2, 0, "b.k", datum.TInt)}
	a := Args{Left: []*plan.Node{l}, Right: []*plan.Node{r}, Preds: []expr.Expr{eq}, keys: &joinKeys{}}
	if k := equiKeys(a); !slices.Equal(k.ls, []int{1}) || !slices.Equal(k.rs, []int{0}) || equiKeys(a) != k {
		t.Fatalf("keys %v = %v, want [1] = [0], memoized", k.ls, k.rs)
	}
	noPreds := a
	noPreds.Preds = nil
	if k := equiKeys(noPreds); len(k.ls) != 0 {
		t.Fatalf("a copy without predicates reused the memo: keys %v", k.ls)
	}
	swapped := a
	swapped.Left, swapped.Right = a.Right, a.Left
	if k := equiKeys(swapped); !slices.Equal(k.ls, []int{0}) || !slices.Equal(k.rs, []int{1}) {
		t.Fatalf("swapped inputs: keys %v = %v, want [0] = [1]", k.ls, k.rs)
	}
}

func props(ps []*plan.Node) []plan.Props {
	out := make([]plan.Props, len(ps))
	for i, p := range ps {
		out[i] = p.Props
	}
	return out
}

func TestTooManyQuantifiers(t *testing.T) {
	sizes := make([]int64, 21)
	for i := range sizes {
		sizes[i] = 10
	}
	c := testCatalog(t, sizes...)
	var sb strings.Builder
	sb.WriteString("SELECT a0.v FROM t0 a0")
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&sb, ", t%d a%d", i, i)
	}
	sb.WriteString(" WHERE a0.k = a1.k")
	for i := 1; i < 20; i++ {
		fmt.Fprintf(&sb, " AND a%d.k = a%d.k", i, i+1)
	}
	stmt, err := sql.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.TranslateStatement(c, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c).OptimizeConfig(g, nil, Config{}); err == nil {
		t.Fatal("21-way join must be rejected by the enumerator limit")
	}
}

// TestMergeJoinNotOfferedForOuterKind: the merge-join alternative's
// condition must reject non-regular join kinds (its executor implements
// only the regular kind), so an outer join with hash and nested-loop
// removed must fail to plan rather than silently drop preserved rows.
func TestMergeJoinNotOfferedForOuterKind(t *testing.T) {
	c := testCatalog(t, 100, 100)
	stmt, _ := sql.Parse("SELECT a.v FROM t0 a LEFT OUTER JOIN t1 b ON a.k = b.k")
	g, err := qgm.TranslateStatement(c, stmt)
	if err != nil {
		t.Fatal(err)
	}
	o := New(c)
	o.Generator().RemoveAlternative("JOIN", "NestedLoop")
	o.Generator().RemoveAlternative("JOIN", "HashJoin")
	if _, err := o.OptimizeConfig(g, nil, Config{}); err == nil {
		t.Fatal("outer join with only merge available must fail to plan, not mis-plan")
	}
	// With hash available the outer join plans via HSJN.
	o2 := New(c)
	o2.Generator().RemoveAlternative("JOIN", "NestedLoop")
	g2, _ := qgm.TranslateStatement(c, stmt)
	compiled, err := o2.OptimizeConfig(g2, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.CollectOps(compiled.Root)
	if ops[plan.OpHSJoin] != 1 {
		t.Fatalf("expected hash outer join:\n%s", compiled.Root)
	}
}
