package verify_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/verify"
)

// shapesCatalog is the paper schema with a supplier table and a parts
// tree, for the grouped join and the recursion.
func shapesCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, tb := range []struct {
		name string
		cols []catalog.Column
	}{
		{"QUOTATIONS", []catalog.Column{{Name: "PARTNO", Type: datum.TInt}, {Name: "PRICE", Type: datum.TFloat},
			{Name: "ORDER_QTY", Type: datum.TInt}, {Name: "SUPPNO", Type: datum.TInt}}},
		{"INVENTORY", []catalog.Column{{Name: "PARTNO", Type: datum.TInt}, {Name: "ONHAND_QTY", Type: datum.TInt},
			{Name: "TYPE", Type: datum.TString}}},
		{"SUPPLIERS", []catalog.Column{{Name: "SUPPNO", Type: datum.TInt}, {Name: "CITY", Type: datum.TString}}},
		{"TREE", []catalog.Column{{Name: "ID", Type: datum.TInt}, {Name: "PARENT", Type: datum.TInt},
			{Name: "WEIGHT", Type: datum.TInt}}},
	} {
		if _, err := c.CreateTable(tb.name, tb.cols, ""); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// shapeQueries are the graphs the zero-allocation check runs on: the
// paper query, a grouped 3-way join, a set-op chain and a recursion.
var shapeQueries = []string{
	paperQuery,
	`SELECT i.type, s.city, COUNT(*), SUM(q.order_qty) FROM quotations q, inventory i, suppliers s
		WHERE q.partno = i.partno AND q.suppno = s.suppno AND q.price < 600
		GROUP BY i.type, s.city HAVING COUNT(*) > 1`,
	`SELECT partno FROM quotations WHERE price < 300 UNION SELECT partno FROM inventory WHERE type = 'CPU'
		EXCEPT SELECT partno FROM quotations WHERE suppno = 1
		INTERSECT SELECT partno FROM inventory WHERE onhand_qty > 25`,
	`WITH RECURSIVE sub(id, weight) AS (SELECT id, weight FROM tree WHERE parent = 1
		UNION SELECT t.id, t.weight FROM sub s, tree t WHERE t.parent = s.id)
		SELECT COUNT(*), SUM(weight) FROM sub`,
}

// sweepQueries add the remaining shapes to the corruption sweep: every
// quantifier type, a deferred subplan (OR over a subquery), an outer
// join, CASE and LIKE, VALUES and the three DML boxes.
var sweepQueries = append(append([]string(nil), shapeQueries...),
	"SELECT partno FROM inventory i WHERE EXISTS (SELECT 1 FROM quotations q WHERE q.partno = i.partno AND q.price > 700)",
	"SELECT partno FROM inventory i WHERE onhand_qty * 3 >= ALL (SELECT order_qty FROM quotations q WHERE q.partno = i.partno)",
	"SELECT partno, (SELECT MAX(price) FROM quotations q WHERE q.partno = i.partno) FROM inventory i",
	"SELECT partno FROM inventory i WHERE onhand_qty < 5 OR EXISTS (SELECT 1 FROM quotations q WHERE q.partno = i.partno)",
	"SELECT i.partno, q.price FROM inventory i LEFT OUTER JOIN quotations q ON i.partno = q.partno AND q.price > 800 WHERE i.type = 'RAM'",
	"SELECT partno, CASE WHEN onhand_qty < 10 THEN 'LOW' ELSE 'HIGH' END FROM inventory WHERE type LIKE 'C%'",
	"SELECT DISTINCT suppno, order_qty FROM quotations WHERE price > 400 ORDER BY suppno, order_qty DESC",
	"SELECT x.p FROM (SELECT partno p, price FROM quotations) x WHERE x.price < 10",
	"INSERT INTO suppliers VALUES (1, 'A'), (2, 'B')",
	"INSERT INTO suppliers SELECT suppno, 'X' FROM quotations WHERE price > 10",
	"UPDATE inventory SET onhand_qty = onhand_qty + 1 WHERE partno IN (SELECT partno FROM quotations)",
	"DELETE FROM tree WHERE weight > 3",
)

// requireSameReport fails unless Graph and the reference verifier
// report the same violations, in the same order, on g. A panic counts
// as a report: both must panic or neither.
func requireSameReport(t testing.TB, label string, g *qgm.Graph) {
	t.Helper()
	got, gotPanic := reportOf(verify.Graph, g)
	want, wantPanic := reportOf(verify.ReferenceGraph, g)
	if gotPanic != wantPanic {
		t.Fatalf("%s: Graph panicked %q, reference %q", label, gotPanic, wantPanic)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Graph reports\n%v\nthe reference reports\n%v\ngraph:\n%s", label, got, want, g)
	}
}

func reportOf(check func(*qgm.Graph) *verify.Report, g *qgm.Graph) (rep *verify.Report, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return check(g), ""
}

func parseAndTranslate(t testing.TB, c *catalog.Catalog, src string) *qgm.Graph {
	t.Helper()
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

// TestGraphMatchesReferenceOnCases runs the clean and corruption cases
// through both verifiers.
func TestGraphMatchesReferenceOnCases(t *testing.T) {
	c := paperCatalog(t)
	for _, q := range cleanQueries {
		requireSameReport(t, q, translate(t, c, q))
	}
	for _, tc := range corruptions {
		g := translate(t, c, paperQuery)
		tc.corrupt(t, g)
		requireSameReport(t, tc.name, g)
	}
}

// TestGraphMatchesReferenceOnCorpus runs every statement of the
// equivalence corpus through both verifiers after translation and
// after each firing of the default rewrite rules.
func TestGraphMatchesReferenceOnCorpus(t *testing.T) {
	c := corpusCatalog(t)
	engine := rewrite.NewDefaultEngine()
	stmts := readCorpus(t)
	firings := 0
	for _, src := range stmts {
		requireSameReport(t, src, parseAndTranslate(t, c, src))
		// Replaying the rewrite under a growing budget stops it after
		// each firing in turn.
		for budget := 1; ; budget++ {
			g := parseAndTranslate(t, c, src)
			trace, err := engine.Run(g, rewrite.Options{Budget: budget}, false)
			if err != nil {
				t.Fatalf("%s: rewrite: %v", src, err)
			}
			if len(trace) < budget {
				break
			}
			firings++
			requireSameReport(t, fmt.Sprintf("%s after %s", src, trace[len(trace)-1].Rule), g)
		}
	}
	if len(stmts) < 60 || firings == 0 {
		t.Fatalf("corpus ran %d statements and %d firings; the file looks truncated", len(stmts), firings)
	}
}

// corpusCatalog holds the tables and the DBC aggregate the equivalence
// corpus reads.
func corpusCatalog(t testing.TB) *catalog.Catalog {
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

// corpusFile is the equivalence corpus of the root package's tests,
// one Go-quoted statement a line; TestVerifyCorpusFileCurrent there
// keeps it in step with the generator.
const corpusFile = "testdata/equivalence_corpus.txt"

func readCorpus(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile(corpusFile)
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
			t.Fatalf("%s: %v: %s", corpusFile, err, line)
		}
		out = append(out, q)
	}
	return out
}

// TestGraphMatchesReferenceOnSweep damages every sweep shape with
// seeded random corruptions and runs both verifiers on the result.
func TestGraphMatchesReferenceOnSweep(t *testing.T) {
	c := shapesCatalog(t)
	for qi, src := range sweepQueries {
		for seed := int64(0); seed < 200; seed++ {
			g := parseAndTranslate(t, c, src)
			rng := rand.New(rand.NewSource(seed*int64(len(sweepQueries)) + int64(qi)))
			var done []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				done = append(done, corruptAtRandom(g, rng))
			}
			requireSameReport(t, fmt.Sprintf("%s with %s", src, strings.Join(done, ", ")), g)
		}
	}
}

// FuzzVerifyMatchesReference applies fuzzer-chosen corruptions to a
// sweep shape and runs both verifiers on the result.
func FuzzVerifyMatchesReference(f *testing.F) {
	for i := range sweepQueries {
		f.Add(uint8(i), int64(i), uint8(2))
	}
	c := shapesCatalog(f)
	f.Fuzz(func(t *testing.T, query uint8, seed int64, n uint8) {
		src := sweepQueries[int(query)%len(sweepQueries)]
		g := parseAndTranslate(t, c, src)
		rng := rand.New(rand.NewSource(seed))
		var done []string
		for i := 0; i < int(n%6); i++ {
			done = append(done, corruptAtRandom(g, rng))
		}
		requireSameReport(t, fmt.Sprintf("%s with %s", src, strings.Join(done, ", ")), g)
	})
}

// corruptAtRandom damages g in one randomly chosen way and says which:
// a column's QID or ordinal, a head type, a distinct mode, a
// quantifier's type or set predicate, a range edge (which may close a
// cycle, or be cut), a box or quantifier id (collisions and ids past
// the dense range included), the box registry (dangling or
// unregistered boxes), a box's kind or body, or an expression moved
// to another box or cut.
func corruptAtRandom(g *qgm.Graph, rng *rand.Rand) string {
	var boxes []*qgm.Box
	var quants []*qgm.Quantifier
	var cols []*expr.Col
	var exprs []expr.Expr
	seen := map[*qgm.Box]bool{}
	var walk func(b *qgm.Box)
	walk = func(b *qgm.Box) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		boxes = append(boxes, b)
		b.VisitExprs(func(_ qgm.Loc, e expr.Expr) {
			exprs = append(exprs, e)
			expr.Walk(e, func(x expr.Expr) bool {
				switch x := x.(type) {
				case *expr.Col:
					cols = append(cols, x)
				case *expr.Subplan:
					if ds, ok := x.Aux.(*qgm.DeferredSubquery); ok {
						walk(ds.Box)
					}
				}
				return true
			})
		})
		for _, q := range b.Quants {
			quants = append(quants, q)
			walk(q.Input)
		}
	}
	walk(g.Top)
	for _, b := range g.Boxes {
		walk(b)
	}
	if len(boxes) == 0 {
		return "nothing"
	}
	ids := []int{-1, 0, 1, 2, 3, 5, 999, 5000}
	for _, q := range quants {
		ids = append(ids, q.QID)
	}
	anyBox := func() *qgm.Box { return boxes[rng.Intn(len(boxes))] }
	switch k := rng.Intn(16); {
	case k == 0 && len(cols) > 0:
		col := cols[rng.Intn(len(cols))]
		col.QID = ids[rng.Intn(len(ids))]
		return fmt.Sprintf("col %s qid=%d", col.Name, col.QID)
	case k == 1 && len(cols) > 0:
		col := cols[rng.Intn(len(cols))]
		col.Ord = rng.Intn(8) - 1
		return fmt.Sprintf("col %s ord=%d", col.Name, col.Ord)
	case k == 2:
		b := anyBox()
		if len(b.Head) == 0 {
			return "nothing"
		}
		i := rng.Intn(len(b.Head))
		b.Head[i].Type = []datum.TypeID{datum.TInt, datum.TFloat, datum.TString, datum.TBool, datum.TNull}[rng.Intn(5)]
		return fmt.Sprintf("box %d head[%d] type", b.ID, i)
	case k == 3:
		b := anyBox()
		b.Distinct = qgm.DistinctMode(rng.Intn(3))
		b.SetAll = rng.Intn(2) == 0
		b.Recursive = rng.Intn(4) == 0
		return fmt.Sprintf("box %d distinct=%s all=%v recursive=%v", b.ID, b.Distinct, b.SetAll, b.Recursive)
	case k == 4 && len(quants) > 0:
		q := quants[rng.Intn(len(quants))]
		q.Type = []string{qgm.ForEach, qgm.PreserveForeach, qgm.QExists, qgm.QAll, qgm.QScalar, "MAJORITY"}[rng.Intn(6)]
		q.SetPred = []string{"", "ANY", "ALL", "MAJORITY"}[rng.Intn(4)]
		q.Negated = rng.Intn(3) == 0
		return fmt.Sprintf("q%d type=%s setpred=%q negated=%v", q.QID, q.Type, q.SetPred, q.Negated)
	case k == 5 && len(quants) > 0:
		q := quants[rng.Intn(len(quants))]
		if rng.Intn(4) == 0 {
			q.Input = nil
			return fmt.Sprintf("q%d over nothing", q.QID)
		}
		q.Input = anyBox()
		return fmt.Sprintf("q%d over box %d", q.QID, q.Input.ID)
	case k == 6 && len(quants) > 0:
		q := quants[rng.Intn(len(quants))]
		q.QID = ids[rng.Intn(len(ids))]
		return fmt.Sprintf("quantifier qid=%d", q.QID)
	case k == 7:
		b := anyBox()
		b.ID = []int{-3, 0, 1, 2, 4, 1023, 1024, 7000}[rng.Intn(8)]
		return fmt.Sprintf("box id=%d", b.ID)
	case k == 8:
		b := g.NewBox([]string{qgm.KindSelect, qgm.KindValues, qgm.KindGroupBy}[rng.Intn(3)])
		b.Head = append(b.Head, qgm.HeadCol{Name: "X", Type: datum.TInt, Expr: expr.NewConst(datum.NewInt(1))})
		if len(quants) > 0 && rng.Intn(2) == 0 {
			g.NewQuant(b, qgm.ForEach, "", quants[rng.Intn(len(quants))].Input)
		}
		return fmt.Sprintf("dangling box %d", b.ID)
	case k == 9:
		b := anyBox()
		g.RemoveBox(b)
		return fmt.Sprintf("unregistered box %d", b.ID)
	case k == 10:
		b := anyBox()
		b.Kind = []string{qgm.KindSelect, qgm.KindGroupBy, qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept,
			qgm.KindBase, qgm.KindValues, qgm.KindTableFn, qgm.KindChoose, qgm.KindOuterJoin,
			qgm.KindInsert, qgm.KindUpdate, qgm.KindDelete}[rng.Intn(13)]
		return fmt.Sprintf("box %d kind=%s", b.ID, b.Kind)
	case k == 11:
		b := anyBox()
		switch rng.Intn(5) {
		case 0:
			if len(b.Head) > 0 {
				b.Head = b.Head[:len(b.Head)-1]
			}
		case 1:
			if len(b.Quants) > 0 {
				b.RemoveQuant(b.Quants[rng.Intn(len(b.Quants))].QID)
			}
		case 2:
			b.Table = nil
		case 3:
			b.TargetCols = append(b.TargetCols, rng.Intn(12)-2)
		case 4:
			b.Kind = qgm.KindChoose
			b.ChooseConds = append(b.ChooseConds, expr.NewConst(datum.NewBool(true)))
		}
		return fmt.Sprintf("box %d body", b.ID)
	case k == 12 && len(exprs) > 0:
		b := anyBox()
		e := exprs[rng.Intn(len(exprs))]
		switch {
		case len(b.Head) > 0 && rng.Intn(2) == 0:
			b.Head[rng.Intn(len(b.Head))].Expr = e
		case len(b.GroupBy) > 0 && rng.Intn(2) == 0:
			b.GroupBy[rng.Intn(len(b.GroupBy))] = e
		default:
			b.Preds = append(b.Preds, &qgm.Predicate{Expr: e})
		}
		return fmt.Sprintf("expression %s moved to box %d", e, b.ID)
	case k == 13:
		b := anyBox()
		switch {
		case len(b.Head) > 0 && rng.Intn(2) == 0:
			b.Head[rng.Intn(len(b.Head))].Expr = nil
		case len(b.Preds) > 0:
			b.Preds[rng.Intn(len(b.Preds))].Expr = nil
		default:
			b.GroupBy = append(b.GroupBy, nil)
		}
		return fmt.Sprintf("box %d expression cut", b.ID)
	case k == 14 && rng.Intn(4) == 0:
		g.Top = nil
		return "no top"
	default:
		g.Top = anyBox()
		return fmt.Sprintf("top box %d", g.Top.ID)
	}
}

// TestGraphAllocatesNothing: once warm, verifying a well-formed graph
// allocates nothing, before and after rewrite.
func TestGraphAllocatesNothing(t *testing.T) {
	c := shapesCatalog(t)
	engine := rewrite.NewDefaultEngine()
	for _, src := range shapeQueries {
		for _, rewritten := range []bool{false, true} {
			g := parseAndTranslate(t, c, src)
			if rewritten {
				if _, err := engine.Run(g, rewrite.Options{}, false); err != nil {
					t.Fatal(err)
				}
			}
			if rep := verify.Graph(g); rep != nil {
				t.Fatalf("%s: %v", src, rep)
			}
			if n := testing.AllocsPerRun(20, func() { verify.Graph(g) }); n != 0 {
				t.Errorf("%s (rewritten %v): %.1f allocations per check, want 0", src, rewritten, n)
			}
		}
	}
}
