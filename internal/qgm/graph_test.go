package qgm_test

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
	"repro/internal/verify"
)

// TestGraphCheckAndGC: a translated graph passes the verifier, one
// predicate naming a quantifier the graph lacks fails it, and GC drops
// a box nothing ranges over.
func TestGraphCheckAndGC(t *testing.T) {
	g := qgm.TranslateQuery(t, qgm.PaperCatalog(t), qgm.PaperQuery)
	if rep := verify.Graph(g); rep != nil {
		t.Fatal(rep)
	}
	bad := &qgm.Predicate{Expr: expr.NewCol(999, 0, "ghost", datum.TInt)}
	g.Top.Preds = append(g.Top.Preds, bad)
	if rep := verify.Graph(g); rep == nil || !rep.Has(verify.ClassOrphanQID) {
		t.Errorf("the verifier must report the dangling quantifier reference, got %v", rep)
	}
	g.Top.Preds = g.Top.Preds[:len(g.Top.Preds)-1]

	g.NewBox(qgm.KindSelect)
	n := len(g.Boxes)
	g.GC()
	if len(g.Boxes) != n-1 {
		t.Error("GC must remove orphan boxes")
	}
}
