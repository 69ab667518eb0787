package verify_test

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

func paperCatalog(t *testing.T) *catalog.Catalog {
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

const paperQuery = `SELECT partno, price, order_qty FROM quotations Q1
	WHERE Q1.partno IN
	  (SELECT partno FROM inventory Q3
	   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`

// cleanQueries cover the main QGM shapes.
var cleanQueries = []string{
	paperQuery,
	"SELECT * FROM inventory",
	"SELECT DISTINCT type FROM inventory ORDER BY type",
	`SELECT type, COUNT(*), SUM(onhand_qty) total
			FROM inventory WHERE partno > 0 GROUP BY type HAVING COUNT(*) > 1`,
	"SELECT partno FROM quotations UNION SELECT partno FROM inventory",
	"SELECT a.partno FROM quotations a, quotations b WHERE a.partno = b.partno",
}

// TestCleanGraphs: graphs straight out of the translator must verify
// with zero violations across the main QGM shapes.
func TestCleanGraphs(t *testing.T) {
	c := paperCatalog(t)
	for _, q := range cleanQueries {
		g := translate(t, c, q)
		if rep := verify.Graph(g); rep != nil {
			t.Errorf("%s:\n%v", q, rep)
		}
	}
}

// firstCol returns the first *expr.Col reachable in the box head.
func firstCol(t *testing.T, b *qgm.Box) *expr.Col {
	t.Helper()
	for _, hc := range b.Head {
		if c, ok := hc.Expr.(*expr.Col); ok {
			return c
		}
	}
	t.Fatal("no Col in box head")
	return nil
}

// innerSelect returns a non-top SELECT box (the IN-subquery box of the
// paper query).
func innerSelect(t *testing.T, g *qgm.Graph) *qgm.Box {
	t.Helper()
	for _, b := range g.Boxes {
		if b != g.Top && b.Kind == qgm.KindSelect {
			return b
		}
	}
	t.Fatal("no inner SELECT box")
	return nil
}

func baseBox(t *testing.T, g *qgm.Graph) *qgm.Box {
	t.Helper()
	for _, b := range g.Boxes {
		if b.Kind == qgm.KindBase {
			return b
		}
	}
	t.Fatal("no BASE box")
	return nil
}

// TestCorruptions deliberately damages a freshly translated graph in
// each of the ways the verifier must catch, and asserts both the
// violation class and that the diagnostic names the offending box.
func TestCorruptions(t *testing.T) {
	c := paperCatalog(t)
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			g := translate(t, c, paperQuery)
			tc.corrupt(t, g)
			rep := verify.Graph(g)
			if rep == nil {
				t.Fatalf("corruption not detected\n%s", g)
			}
			if !rep.Has(tc.wantClass) {
				t.Fatalf("want a %q violation, got:\n%v", tc.wantClass, rep)
			}
			for _, v := range rep.Violations {
				if v.Class == tc.wantClass && !strings.Contains(v.Path, "box ") {
					t.Errorf("violation lacks a box path: %v", v)
				}
			}
		})
	}
}

// corruptions damage a freshly translated paper query, each in one of
// the ways the verifier must catch.
var corruptions = []struct {
	name      string
	corrupt   func(t *testing.T, g *qgm.Graph)
	wantClass string
}{
	{
		name: "dangling QID",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			firstCol(t, g.Top).QID = 999
		},
		wantClass: verify.ClassOrphanQID,
	},
	{
		name: "ordinal out of range",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			firstCol(t, g.Top).Ord = 99
		},
		wantClass: verify.ClassOrdinal,
	},
	{
		name: "type-mismatched head",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			// PARTNO is INT; claim the head column is a STRING.
			g.Top.Head[0].Type = datum.TString
		},
		wantClass: verify.ClassHeadType,
	},
	{
		name: "cyclic box reference",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			// Point the subquery's setformer back at the top box.
			inner := innerSelect(t, g)
			if len(inner.Quants) == 0 {
				t.Fatal("inner box has no quantifiers")
			}
			inner.Quants[0].Input = g.Top
		},
		wantClass: verify.ClassCycle,
	},
	{
		name: "illegal distinct mode",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			// A BASE box cannot enforce duplicate elimination; its
			// output is whatever the stored table holds.
			baseBox(t, g).Distinct = qgm.EnforceDistinct
		},
		wantClass: verify.ClassDistinct,
	},
	{
		name: "out-of-scope column reference",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			// Reference the subquery's quantifier from the top box:
			// the owner is not the top box nor an ancestor of it.
			inner := innerSelect(t, g)
			if len(inner.Quants) == 0 {
				t.Fatal("inner box has no quantifiers")
			}
			firstCol(t, g.Top).QID = inner.Quants[0].QID
		},
		wantClass: verify.ClassOrphanQID,
	},
	{
		name: "dangling box",
		corrupt: func(t *testing.T, g *qgm.Graph) {
			b := g.NewBox(qgm.KindSelect)
			b.Head = append(b.Head, qgm.HeadCol{Name: "X", Type: datum.TInt, Expr: expr.NewConst(datum.NewInt(1))})
		},
		wantClass: verify.ClassDanglingBox,
	},
}
