package rewrite

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
	"repro/internal/sql"
)

// usedOrdinalsReference is usedOrdinals as it was before it walked the
// graph once into a reused buffer: a fresh map, and one walk of the
// whole graph per ranger.
func usedOrdinalsReference(ctx *Context, box *qgm.Box) map[int]bool {
	used := map[int]bool{}
	if box.Kind == qgm.KindGroupBy {
		for i := range box.GroupBy {
			used[i] = true
		}
	}
	visit := func(e expr.Expr, qid int) {
		expr.Walk(e, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok && c.QID == qid {
				used[c.Ord] = true
			}
			return true
		})
	}
	for _, r := range ctx.Graph.RangersOver(box) {
		qid := r.Quant.QID
		for _, b := range ctx.Graph.Boxes {
			for _, hc := range b.Head {
				if hc.Expr != nil {
					visit(hc.Expr, qid)
				}
			}
			for _, p := range b.Preds {
				visit(p.Expr, qid)
			}
			for _, ge := range b.GroupBy {
				visit(ge, qid)
			}
		}
	}
	return used
}

// corpusCatalog holds the tables and the DBC aggregate the equivalence
// corpus reads.
func corpusCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	i, s := datum.TInt, datum.TString
	for name, cols := range map[string][]catalog.Column{
		"TA": {{Name: "K", Type: i}, {Name: "V", Type: i}, {Name: "S", Type: s}},
		"TB": {{Name: "K", Type: i}, {Name: "V", Type: i}},
		"TC": {{Name: "K", Type: i}, {Name: "S", Type: s}},
		"TN": {{Name: "K", Type: i}, {Name: "V", Type: i}, {Name: "S", Type: s}},
	} {
		if _, err := c.CreateTable(name, cols, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Funcs.RegisterAggregate(&expr.AggregateFunc{
		Name: "VARIANCE", EmptyIsNull: true,
		ReturnType: func(datum.TypeID) (datum.TypeID, error) { return datum.TFloat, nil },
		NewState:   func() expr.AggState { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// readCorpus reads the equivalence corpus, one Go-quoted statement a
// line.
func readCorpus(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../verify/testdata/equivalence_corpus.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		out = append(out, q)
	}
	return out
}

// sharedBoxStatements read one box through two quantifiers that use
// different columns of it: a table expression and a base table joined
// with themselves.
var sharedBoxStatements = []string{
	"WITH w (k, v, s) AS (SELECT k, v, s FROM ta WHERE v > 2) SELECT x.k, y.s FROM w x, w y WHERE x.v = y.k",
	"SELECT x.k, y.s FROM ta x, ta y WHERE x.v = y.v AND y.k > 3",
}

// requireSameUsed fails unless usedOrdinals and the reference agree on
// every box of g: the same columns used, and the same count. It returns
// how many boxes two or more quantifiers range over.
func requireSameUsed(t *testing.T, label string, g *qgm.Graph) (shared int) {
	t.Helper()
	ctx := &Context{Graph: g}
	for _, b := range g.Boxes {
		if len(g.RangersOver(b)) > 1 {
			shared++
		}
		want := usedOrdinalsReference(ctx, b)
		used, n := usedOrdinals(ctx, b)
		if n != len(want) {
			t.Fatalf("%s: box %d: %d columns used, the reference %d (%v)", label, b.ID, n, len(want), want)
		}
		for i, u := range used {
			if u != want[i] {
				t.Fatalf("%s: box %d: column %d used %v, the reference %v", label, b.ID, i, u, want[i])
			}
		}
	}
	return shared
}

// TestUsedOrdinalsMatchesReference compares usedOrdinals with the
// reference on every box of every statement of the equivalence corpus
// and of sharedBoxStatements, after translation and after each firing
// of the default rewrite rules.
func TestUsedOrdinalsMatchesReference(t *testing.T) {
	c := corpusCatalog(t)
	translate := func(src string) *qgm.Graph {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		g, err := qgm.TranslateStatement(c, stmt)
		if err != nil {
			t.Fatalf("translate %q: %v", src, err)
		}
		return g
	}
	engine := NewDefaultEngine()
	stmts, firings, shared := append(readCorpus(t), sharedBoxStatements...), 0, 0
	for _, src := range stmts {
		shared += requireSameUsed(t, src, translate(src))
		// Replaying the rewrite under a growing budget stops it after
		// each firing in turn.
		for budget := 1; ; budget++ {
			g := translate(src)
			trace, err := engine.Run(g, Options{Budget: budget}, false)
			if err != nil {
				t.Fatalf("%s: rewrite: %v", src, err)
			}
			if len(trace) < budget {
				break
			}
			firings++
			shared += requireSameUsed(t, fmt.Sprintf("%s after %s", src, trace[len(trace)-1].Rule), g)
		}
	}
	if len(stmts) < 60 || firings == 0 || shared == 0 {
		t.Fatalf("ran %d statements, %d firings and %d boxes with two rangers; the case is vacuous", len(stmts), firings, shared)
	}
}
