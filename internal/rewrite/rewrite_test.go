package rewrite

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
	"repro/internal/sql"
	"repro/internal/verify"
)

func paperCatalog(t *testing.T, uniquePartno bool) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.CreateTable("QUOTATIONS", []catalog.Column{
		{Name: "PARTNO", Type: datum.TInt},
		{Name: "PRICE", Type: datum.TFloat},
		{Name: "ORDER_QTY", Type: datum.TInt},
	}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("INVENTORY", []catalog.Column{
		{Name: "PARTNO", Type: datum.TInt},
		{Name: "ONHAND_QTY", Type: datum.TInt},
		{Name: "TYPE", Type: datum.TString},
	}, ""); err != nil {
		t.Fatal(err)
	}
	if uniquePartno {
		if _, err := c.CreateIndex("INV_PK", "INVENTORY", []string{"PARTNO"}, "", true); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func translate(t *testing.T, c *catalog.Catalog, src string) *qgm.Graph {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := qgm.TranslateStatement(c, stmt)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return g
}

func rewriteAll(t *testing.T, g *qgm.Graph, opt Options) []Fired {
	t.Helper()
	trace, err := NewDefaultEngine().Run(g, opt, true)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return trace
}

const paperQuery = `SELECT partno, price, order_qty FROM quotations Q1
	WHERE Q1.partno IN
	  (SELECT partno FROM inventory Q3
	   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`

// TestFigure2bRewrite reproduces the paper's Figure 2(b): applying Rule
// 1 (subquery to join, justified by a unique index on inventory.partno)
// and Rule 2 (operation merging) to the Figure 2(a) QGM collapses the
// two SELECT boxes into one whose body holds Q1 and Q3 with three
// conjuncts: the join predicate, the migrated correlation predicate,
// and the local type predicate.
func TestFigure2bRewrite(t *testing.T) {
	c := paperCatalog(t, true)
	g := translate(t, c, paperQuery)

	trace := rewriteAll(t, g, Options{})
	fired := map[string]bool{}
	for _, f := range trace {
		fired[f.Rule] = true
	}
	if !fired["subquery-to-join"] {
		t.Error("Rule 1 (subquery-to-join) must fire")
	}
	if !fired["operation-merge"] {
		t.Error("Rule 2 (operation-merge) must fire")
	}

	top := g.Top
	// One box: all SELECT boxes merged.
	selects := 0
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindSelect {
			selects++
		}
	}
	if selects != 1 {
		t.Fatalf("after rewrite: %d SELECT boxes, want 1\n%s", selects, g)
	}
	// Body: Q1 over quotations and Q3 over inventory, both setformers.
	if len(top.Quants) != 2 {
		t.Fatalf("merged box has %d quantifiers\n%s", len(top.Quants), g)
	}
	for _, q := range top.Quants {
		if q.Type != qgm.ForEach {
			t.Errorf("quantifier %s type = %s, want F", q.Name, q.Type)
		}
		if q.Input.Kind != qgm.KindBase {
			t.Errorf("quantifier %s over %s, want BASE", q.Name, q.Input.Kind)
		}
	}
	// Three conjuncts, as in Figure 2(b).
	if len(top.Preds) != 3 {
		t.Fatalf("merged box has %d predicates, want 3\n%s", len(top.Preds), g)
	}
	s := g.String()
	for _, want := range []string{"Q1.PARTNO = ", "'CPU'"} {
		if !strings.Contains(s, want) {
			t.Errorf("rewritten QGM missing %q:\n%s", want, s)
		}
	}
	if err := verify.Graph(g); err != nil {
		t.Fatal(err)
	}
}

// TestRule1RequiresUniqueness: without the unique index the direct
// conversion must NOT fire (duplicates would multiply outer tuples);
// the generalized distinct-join conversion takes over only for
// uncorrelated subqueries — the paper query is correlated, so it must
// remain a subquery.
func TestRule1RequiresUniqueness(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, paperQuery)
	trace := rewriteAll(t, g, Options{})
	for _, f := range trace {
		if f.Rule == "subquery-to-join" {
			t.Fatal("Rule 1 fired without a uniqueness guarantee")
		}
		if f.Rule == "subquery-to-distinct-join" {
			t.Fatal("distinct-join conversion fired on a correlated subquery")
		}
	}
	// The E quantifier survives.
	hasE := false
	for _, b := range g.Boxes {
		for _, q := range b.Quants {
			if q.Type == qgm.QExists {
				hasE = true
			}
		}
	}
	if !hasE {
		t.Error("existential quantifier must survive")
	}
}

func TestDistinctJoinConversionUncorrelated(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, `SELECT partno FROM quotations
		WHERE partno IN (SELECT partno FROM inventory WHERE type = 'CPU')`)
	trace := rewriteAll(t, g, Options{})
	converted := false
	for _, f := range trace {
		if f.Rule == "subquery-to-distinct-join" {
			converted = true
		}
	}
	if !converted {
		t.Fatalf("uncorrelated IN should convert via distinct join; trace=%v\n%s", trace, g)
	}
	// The subquery box must now enforce duplicate elimination, and the
	// paper's Rule 2 must NOT merge it (that would lose the dedup).
	for _, b := range g.Boxes {
		for _, q := range b.Quants {
			if q.Input.Kind == qgm.KindSelect && q.Type == qgm.ForEach && q.Input.Distinct != qgm.EnforceDistinct {
				t.Error("converted subquery must enforce DISTINCT")
			}
		}
	}
}

func TestNegatedSubqueryNeverConverts(t *testing.T) {
	c := paperCatalog(t, true)
	g := translate(t, c, `SELECT partno FROM quotations
		WHERE partno NOT IN (SELECT partno FROM inventory)`)
	trace := rewriteAll(t, g, Options{})
	for _, f := range trace {
		if strings.HasPrefix(f.Rule, "subquery-to") {
			t.Fatalf("negated quantifier converted by %s", f.Rule)
		}
	}
}

func TestViewMergeRule(t *testing.T) {
	c := paperCatalog(t, false)
	if err := c.CreateView("cpuview", nil,
		"SELECT partno, onhand_qty FROM inventory WHERE type = 'CPU'"); err != nil {
		t.Fatal(err)
	}
	g := translate(t, c, "SELECT partno FROM cpuview WHERE onhand_qty < 5")
	trace := rewriteAll(t, g, Options{})
	merged := false
	for _, f := range trace {
		if f.Rule == "operation-merge" {
			merged = true
		}
	}
	if !merged {
		t.Fatal("view must merge into the query")
	}
	// Result: a single SELECT over the base table with both predicates.
	if g.Top.Kind != qgm.KindSelect || len(g.Top.Preds) != 2 {
		t.Fatalf("merged view shape wrong:\n%s", g)
	}
	if g.Top.Quants[0].Input.Kind != qgm.KindBase {
		t.Error("quantifier over base table after merge")
	}
}

func TestMergeBlockedByDistinct(t *testing.T) {
	// Paper Rule 2 condition: a duplicate-eliminating lower box cannot
	// merge into an upper box whose output allows duplicates.
	c := paperCatalog(t, false)
	if err := c.CreateView("dv", nil, "SELECT DISTINCT partno FROM inventory"); err != nil {
		t.Fatal(err)
	}
	g := translate(t, c, "SELECT partno FROM dv")
	rewriteAll(t, g, Options{})
	selects := 0
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindSelect {
			selects++
		}
	}
	if selects != 2 {
		t.Fatalf("distinct view must not merge; got %d selects\n%s", selects, g)
	}
	// But it CAN merge when the upper box is itself distinct.
	g = translate(t, c, "SELECT DISTINCT partno FROM dv")
	rewriteAll(t, g, Options{})
	selects = 0
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindSelect {
			selects++
		}
	}
	if selects != 1 {
		t.Fatalf("distinct-into-distinct must merge; got %d selects\n%s", selects, g)
	}
}

func TestPredicatePushdown(t *testing.T) {
	c := paperCatalog(t, false)
	// Table expression with two references — merge is blocked, so the
	// outer predicate must be pushed into it instead... but pushdown
	// also needs sole ownership. Use a nested derived table that stays
	// separate because of DISTINCT.
	g := translate(t, c, `SELECT partno FROM
		(SELECT DISTINCT partno, type FROM inventory) d WHERE d.type = 'CPU'`)
	trace := rewriteAll(t, g, Options{})
	pushed := false
	for _, f := range trace {
		if f.Rule == "predicate-pushdown" {
			pushed = true
		}
	}
	if !pushed {
		t.Fatalf("predicate must push into the distinct derived table; trace=%v", trace)
	}
	// The pushed predicate now sits on the box over the base table.
	var inner *qgm.Box
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindSelect && b.Distinct == qgm.EnforceDistinct {
			inner = b
		}
	}
	if inner == nil || len(inner.Preds) != 1 {
		t.Fatalf("pushed predicate missing:\n%s", g)
	}
	if len(g.Top.Preds) != 0 {
		t.Error("outer predicate should be gone")
	}
}

func TestPredicateThroughGroupBy(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, `SELECT type, total FROM
		(SELECT type, SUM(onhand_qty) total FROM inventory GROUP BY type) s
		WHERE s.type = 'CPU' AND s.total > 100`)
	trace := rewriteAll(t, g, Options{})
	through := false
	for _, f := range trace {
		if f.Rule == "predicate-through-groupby" {
			through = true
		}
	}
	if !through {
		t.Fatalf("group-column predicate must pass through GROUP BY; trace=%v\n%s", trace, g)
	}
	// The type predicate must reach the box below the GROUP BY; the
	// total predicate (aggregate column) must stay above it.
	var gb *qgm.Box
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindGroupBy {
			gb = b
		}
	}
	if gb == nil {
		t.Fatal("no group box")
	}
	lower := gb.Quants[0].Input
	foundType := false
	for _, p := range lower.Preds {
		if strings.Contains(p.Expr.String(), "CPU") {
			foundType = true
		}
	}
	if !foundType {
		t.Errorf("type predicate must be below the GROUP BY:\n%s", g)
	}
}

func TestProjectionPushdown(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, `SELECT partno FROM
		(SELECT partno, price, order_qty FROM quotations) w`)
	trace := rewriteAll(t, g, Options{Classes: []string{"projection"}})
	if len(trace) == 0 {
		t.Fatal("projection pushdown must fire")
	}
	var inner *qgm.Box
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindSelect && b != g.Top {
			inner = b
		}
	}
	if inner == nil {
		t.Fatalf("inner box gone?\n%s", g)
	}
	if len(inner.Head) != 1 {
		t.Errorf("inner head = %d cols, want 1 after trim\n%s", len(inner.Head), g)
	}
	if err := verify.Graph(g); err != nil {
		t.Fatal(err)
	}
}

func TestRedundantJoinElimination(t *testing.T) {
	c := paperCatalog(t, true)
	g := translate(t, c, `SELECT a.onhand_qty FROM inventory a, inventory b
		WHERE a.partno = b.partno AND b.type = 'CPU'`)
	trace := rewriteAll(t, g, Options{})
	fired := false
	for _, f := range trace {
		if f.Rule == "redundant-join-elimination" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("redundant self-join on unique key must be eliminated; trace=%v", trace)
	}
	if len(g.Top.Quants) != 1 {
		t.Fatalf("one quantifier should remain:\n%s", g)
	}
	// The type predicate must survive, now on the surviving quantifier.
	found := false
	for _, p := range g.Top.Preds {
		if strings.Contains(p.Expr.String(), "CPU") {
			found = true
		}
	}
	if !found {
		t.Error("predicate lost during join elimination")
	}
}

func TestRedundantJoinNotEliminatedWithoutKey(t *testing.T) {
	c := paperCatalog(t, false) // no unique index
	g := translate(t, c, `SELECT a.onhand_qty FROM inventory a, inventory b
		WHERE a.partno = b.partno AND b.type = 'CPU'`)
	trace := rewriteAll(t, g, Options{})
	for _, f := range trace {
		if f.Rule == "redundant-join-elimination" {
			t.Fatal("join elimination fired without a unique key")
		}
	}
}

func TestRuleClasses(t *testing.T) {
	c := paperCatalog(t, true)
	g := translate(t, c, paperQuery)
	// Only the subquery class: conversion happens, merge does not.
	trace := rewriteAll(t, g, Options{Classes: []string{"subquery"}})
	for _, f := range trace {
		if f.Rule == "operation-merge" {
			t.Fatal("merge class was not requested")
		}
	}
	if len(trace) == 0 {
		t.Fatal("subquery class must fire")
	}
	selects := 0
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindSelect {
			selects++
		}
	}
	if selects != 2 {
		t.Error("boxes must remain unmerged")
	}
}

func TestBudgetStopsAtConsistentState(t *testing.T) {
	c := paperCatalog(t, true)
	g := translate(t, c, paperQuery)
	trace := rewriteAll(t, g, Options{Budget: 1})
	if len(trace) != 1 {
		t.Fatalf("budget 1: fired %d", len(trace))
	}
	if err := verify.Graph(g); err != nil {
		t.Fatalf("budget-stopped QGM must be consistent: %v", err)
	}
}

func TestControlStrategiesConverge(t *testing.T) {
	// All three control strategies must reach the same fixpoint shape
	// on the paper query (rule order may differ).
	for _, s := range []Strategy{Sequential, Priority, Statistical} {
		for _, search := range []SearchOrder{DepthFirst, BreadthFirst} {
			c := paperCatalog(t, true)
			g := translate(t, c, paperQuery)
			rewriteAll(t, g, Options{Strategy: s, Search: search, Seed: 7})
			selects := 0
			for _, b := range g.Boxes {
				if b.Kind == qgm.KindSelect {
					selects++
				}
			}
			if selects != 1 {
				t.Errorf("strategy %v/%v: %d selects, want 1", s, search, selects)
			}
		}
	}
}

func TestDBCRuleRegistration(t *testing.T) {
	// A DBC can add rules; here: a toy rule that removes constant TRUE
	// predicates.
	e := NewDefaultEngine()
	err := e.Register(&Rule{
		Name:  "drop-true",
		Class: "misc",
		Condition: func(ctx *Context, b *qgm.Box) bool {
			for _, p := range b.Preds {
				if c, ok := p.Expr.(*expr.Const); ok && c.Val.Type() == datum.TBool && c.Val.Bool() {
					return true
				}
			}
			return false
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			var kept []*qgm.Predicate
			for _, p := range b.Preds {
				if c, ok := p.Expr.(*expr.Const); ok && c.Val.Type() == datum.TBool && c.Val.Bool() {
					continue
				}
				kept = append(kept, p)
			}
			b.Preds = kept
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := paperCatalog(t, false)
	g := translate(t, c, "SELECT partno FROM inventory WHERE TRUE AND type = 'CPU'")
	trace, err := e.Run(g, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	for _, f := range trace {
		if f.Rule == "drop-true" {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("DBC rule must fire")
	}
}

// TestRegisterRejectsMalformedRules: a rule without a Name, Condition or
// Action never enters the engine, so it can neither silently never fire
// nor panic the engine mid-rewrite.
func TestRegisterRejectsMalformedRules(t *testing.T) {
	cond := func(*Context, *qgm.Box) bool { return false }
	act := func(*Context, *qgm.Box) error { return nil }
	for _, r := range []*Rule{
		{Name: "noAction", Condition: cond},
		{Name: "noCondition", Action: act},
		{Name: "nilAction", Condition: cond, Action: nil},
		{Condition: cond, Action: act},
	} {
		e := NewEngine()
		if err := e.Register(r); err == nil {
			t.Errorf("Register(%q) accepted a malformed rule", r.Name)
		}
		if len(e.rules) != 0 || e.Generation() != 0 {
			t.Errorf("Register(%q) changed the rule set", r.Name)
		}
	}
}

// TestDefaultEngineHoldsBaseRules: NewDefaultEngine registers every
// base rule, in order; a malformed one would panic it instead.
func TestDefaultEngineHoldsBaseRules(t *testing.T) {
	e := NewDefaultEngine()
	base := BaseRules()
	if len(e.rules) != len(base) {
		t.Fatalf("default engine holds %d rules, BaseRules has %d", len(e.rules), len(base))
	}
	for i, r := range base {
		if e.rules[i].Name != r.Name {
			t.Errorf("rule %d = %s, want %s", i, e.rules[i].Name, r.Name)
		}
	}
}

func TestCloneSubgraph(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, paperQuery)
	clone := CloneSubgraph(g, g.Top)
	if clone == g.Top {
		t.Fatal("clone must be a new box")
	}
	if len(clone.Quants) != len(g.Top.Quants) {
		t.Fatal("quantifier count differs")
	}
	for i := range clone.Quants {
		if clone.Quants[i].QID == g.Top.Quants[i].QID {
			t.Error("quantifier ids must be fresh")
		}
	}
	// Correlated reference inside the cloned subquery must point at the
	// CLONED outer quantifier.
	innerClone := clone.Quants[1].Input
	q1Clone := clone.Quants[0]
	foundCorrelation := false
	for _, p := range innerClone.Preds {
		if expr.RefersTo(p.Expr, q1Clone.QID) {
			foundCorrelation = true
		}
		if expr.RefersTo(p.Expr, g.Top.Quants[0].QID) {
			t.Error("cloned subquery still references the original outer quantifier")
		}
	}
	if !foundCorrelation {
		t.Error("cloned correlation must target the cloned quantifier")
	}
	// Both share the BASE boxes.
	if clone.Quants[0].Input != g.Top.Quants[0].Input {
		t.Error("BASE boxes are shared, not cloned")
	}
	if verify.Graph(g) == nil {
		// Check fails only because clone isn't wired to top; wire it
		// through CHOOSE and the graph must validate.
		t.Log("graph valid before choose (clone reachable check skipped)")
	}
	ch := WrapChoose(g, g.Top, clone)
	g.Top = ch
	g.GC()
	if err := verify.Graph(g); err != nil {
		t.Fatalf("after WrapChoose: %v", err)
	}
	if ch.Kind != qgm.KindChoose || len(ch.Quants) != 2 {
		t.Errorf("choose box = %+v", ch)
	}
}

func TestRewriteTraceOrderDeterministic(t *testing.T) {
	c := paperCatalog(t, true)
	g1 := translate(t, c, paperQuery)
	g2 := translate(t, c, paperQuery)
	t1 := rewriteAll(t, g1, Options{})
	t2 := rewriteAll(t, g2, Options{})
	if len(t1) != len(t2) {
		t.Fatal("non-deterministic trace length")
	}
	for i := range t1 {
		if t1[i].Rule != t2[i].Rule {
			t.Fatal("non-deterministic trace")
		}
	}
}

func TestPredicateReplication(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, `SELECT q.price FROM quotations q, inventory i
		WHERE q.partno = i.partno AND q.partno = 3`)
	trace := rewriteAll(t, g, Options{})
	fired := false
	for _, f := range trace {
		if f.Rule == "predicate-replication" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("replication must fire; trace = %v", trace)
	}
	// The replica i.partno = 3 must exist.
	found := false
	for _, p := range g.Top.Preds {
		s := p.Expr.String()
		if strings.Contains(s, "i.PARTNO = 3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("replica missing:\n%s", g)
	}
	// Termination: re-running fires nothing new.
	again := rewriteAll(t, g, Options{})
	for _, f := range again {
		if f.Rule == "predicate-replication" {
			t.Fatal("replication must not refire")
		}
	}
}

func TestPredicateReplicationRange(t *testing.T) {
	c := paperCatalog(t, false)
	g := translate(t, c, `SELECT q.price FROM quotations q, inventory i
		WHERE q.partno = i.partno AND i.partno < 4`)
	rewriteAll(t, g, Options{})
	found := false
	for _, p := range g.Top.Preds {
		if strings.Contains(p.Expr.String(), "q.PARTNO < 4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("range replica missing:\n%s", g)
	}
}
