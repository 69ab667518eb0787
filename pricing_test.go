package starburst

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/sql"
)

// These tests cover the JOIN and GLUE alternatives that price a
// candidate before they build it (optimizer.Args.Kept): the plans they
// choose must be exactly those of eager building.

// eagerJoins wraps every JOIN and GLUE alternative of db so that it sees
// no pricing hint and builds every candidate, and takes GLUE's prices
// away, so that a merge join is priced from the inputs GLUE built: the
// reference plans.
func eagerJoins(db *DB) *DB {
	for _, s := range db.Optimizer().Generator().STARs() {
		if s.Name != "JOIN" && s.Name != "GLUE" {
			continue
		}
		for _, alt := range s.Alternatives {
			build := alt.Build
			alt.Build = func(ctx *OptCtx, a OptArgs) ([]*PlanNode, error) {
				a.Kept = nil
				return build(ctx, a)
			}
			alt.Price = nil
		}
	}
	return db
}

// tiedHashJoin adds to db a JOIN alternative that ignores the pricing
// hint and builds, relabeled TIED_HSJN, what the built-in hash join
// builds: evaluated after it, the copy ties it on cost and order, so
// only the evaluation order, which settling keeps, drops the copy.
func tiedHashJoin(db *DB) *DB {
	var hash *STARAlternative
	for _, s := range db.Optimizer().Generator().STARs() {
		for _, alt := range s.Alternatives {
			if s.Name == "JOIN" && alt.Name == "HashJoin" {
				hash = alt
			}
		}
	}
	db.AddSTARAlternative("JOIN", &STARAlternative{
		Name:      "TiedHashJoin",
		Condition: hash.Condition,
		Build: func(ctx *OptCtx, a OptArgs) ([]*PlanNode, error) {
			a.Kept = nil
			plans, err := hash.Build(ctx, a)
			for i, p := range plans {
				tied := *p
				tied.Op = "TIED_HSJN"
				plans[i] = &tied
			}
			return plans, err
		},
	})
	return db
}

// planText is the plan section of EXPLAIN q on db.
func planText(t *testing.T, db *DB, q string) string {
	t.Helper()
	text := explainText(t, db, q)
	i := strings.Index(text, "=== Query evaluation plan ===")
	if i < 0 {
		t.Fatalf("EXPLAIN %s: no plan section:\n%s", q, text)
	}
	return text[i:]
}

// requireSamePlans asserts that priced and eager choose the same plan
// for every query.
func requireSamePlans(t *testing.T, label string, priced, eager *DB, qs []string) {
	t.Helper()
	for _, q := range qs {
		if p, e := planText(t, priced, q), planText(t, eager, q); p != e {
			t.Fatalf("%s: pricing changed the plan of %q\npriced:\n%s\neager:\n%s", label, q, p, e)
		}
	}
}

// paperSchemaDB loads the paper's quotations/inventory schema with
// suppliers, a parts tree, a six-table chain and two stacked views.
func paperSchemaDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	for _, ddl := range []string{
		"CREATE TABLE quotations (partno INT, price FLOAT, order_qty INT, suppno INT)",
		"CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)",
		"CREATE TABLE suppliers (suppno INT, city STRING)",
		"CREATE TABLE tree (id INT, parent INT, weight INT)",
		"CREATE UNIQUE INDEX inv_pk ON inventory (partno)",
		"CREATE VIEW cheap AS SELECT partno, price, order_qty FROM quotations WHERE price < 500",
		"CREATE VIEW cheap_small AS SELECT partno, order_qty FROM cheap WHERE order_qty < 50",
	} {
		mustExec(t, db, ddl)
	}
	types := []string{"'CPU'", "'RAM'", "'DISK'", "'NIC'"}
	for i := 0; i < 60; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO quotations VALUES (%d, %d.5, %d, %d)", i%25, i*17%1000, i*7%60, i%8))
	}
	for i := 0; i < 25; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO inventory VALUES (%d, %d, %s)", i, i*3%40, types[i%4]))
	}
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO suppliers VALUES (%d, 'C%d')", i, i%3))
	}
	for i := 2; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO tree VALUES (%d, %d, %d)", i, i/2, i%5))
	}
	tables := []string{"quotations", "inventory", "suppliers", "tree"}
	for c := 0; c < 6; c++ {
		name := fmt.Sprintf("t%d", c)
		mustExec(t, db, "CREATE TABLE "+name+" (k INT, v INT)")
		for r := 0; r < 10+15*c; r++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", name, r%(20+c), r))
		}
		tables = append(tables, name)
	}
	for _, tb := range tables {
		mustExec(t, db, "ANALYZE "+tb)
	}
	return db
}

// paperSchemaStatements have the shapes of the twelve ad-hoc statements
// over the paper schema: subqueries, views, joins, set operations,
// recursion, outer join, DISTINCT with ORDER BY.
var paperSchemaStatements = []string{
	"SELECT partno, price, order_qty FROM quotations Q1 WHERE Q1.partno IN (SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')",
	"SELECT partno, order_qty FROM cheap_small WHERE partno < 9",
	"SELECT partno, type FROM inventory i WHERE EXISTS (SELECT 1 FROM quotations q WHERE q.partno = i.partno AND q.price > 700)",
	"SELECT partno FROM inventory i WHERE onhand_qty > ANY (SELECT order_qty FROM quotations q WHERE q.suppno < 5 AND q.partno = i.partno)",
	"SELECT partno FROM inventory i WHERE onhand_qty * 3 >= ALL (SELECT order_qty FROM quotations q WHERE q.partno = i.partno)",
	"SELECT a0.v, a5.v FROM t0 a0, t1 a1, t2 a2, t3 a3, t4 a4, t5 a5 WHERE a0.k = a1.k AND a1.k = a2.k AND a2.k = a3.k AND a3.k = a4.k AND a4.k = a5.k AND a0.v < 50",
	"SELECT i.type, s.city, COUNT(*), SUM(q.order_qty) FROM quotations q, inventory i, suppliers s WHERE q.partno = i.partno AND q.suppno = s.suppno AND q.price < 600 GROUP BY i.type, s.city HAVING COUNT(*) > 1",
	"SELECT partno FROM quotations WHERE price < 300 UNION SELECT partno FROM inventory WHERE type = 'CPU' EXCEPT SELECT partno FROM quotations WHERE suppno = 1 INTERSECT SELECT partno FROM inventory WHERE onhand_qty > 25",
	"WITH RECURSIVE sub(id, weight) AS (SELECT id, weight FROM tree WHERE parent = 1 UNION SELECT t.id, t.weight FROM sub s, tree t WHERE t.parent = s.id) SELECT COUNT(*), SUM(weight) FROM sub",
	"SELECT i.partno, q.price FROM inventory i LEFT OUTER JOIN quotations q ON i.partno = q.partno AND q.price > 800 WHERE i.type = 'RAM'",
	"SELECT partno, CASE WHEN onhand_qty < 10 THEN 'LOW' WHEN onhand_qty < 30 THEN 'MID' ELSE 'HIGH' END FROM inventory WHERE type LIKE 'C%' OR type LIKE '%IC'",
	"SELECT DISTINCT suppno, order_qty FROM quotations WHERE price > 400 ORDER BY suppno, order_qty DESC",
	// ORDER BY a join key and GROUP BY over joins.
	"SELECT q.partno, i.onhand_qty FROM quotations q, inventory i WHERE q.partno = i.partno ORDER BY q.partno",
	"SELECT s.city, SUM(q.price) FROM quotations q, suppliers s, inventory i WHERE q.suppno = s.suppno AND i.partno = q.partno GROUP BY s.city ORDER BY s.city",
	"SELECT a1.k, COUNT(*) FROM t1 a1, t2 a2, t3 a3 WHERE a1.k = a2.k AND a2.v = a3.k GROUP BY a1.k ORDER BY a1.k DESC",
}

// paperSchemaOuterJoins are left outer joins over the paper schema: the
// enumerator plans each side, and the outer join's own JOIN evaluation
// carries no pricing hint.
var paperSchemaOuterJoins = []string{
	"SELECT q.partno, s.city FROM quotations q LEFT OUTER JOIN suppliers s ON q.suppno = s.suppno ORDER BY q.partno",
	"SELECT i.partno, q.price, s.city FROM inventory i LEFT OUTER JOIN quotations q ON i.partno = q.partno LEFT OUTER JOIN suppliers s ON q.suppno = s.suppno",
	"SELECT i.partno, qs.city FROM inventory i LEFT OUTER JOIN (SELECT q.partno, s.city FROM quotations q, suppliers s WHERE q.suppno = s.suppno AND q.price < 700) qs ON i.partno = qs.partno AND qs.city <> 'C1'",
	"SELECT s.city, COUNT(*) FROM suppliers s LEFT OUTER JOIN quotations q ON s.suppno = q.suppno AND q.order_qty < 30 GROUP BY s.city ORDER BY s.city",
	"SELECT a1.k, a3.v FROM t1 a1 LEFT OUTER JOIN t3 a3 ON a1.k = a3.k AND a1.v < a3.v WHERE a1.v > 5",
}

// TestPricedPlansEqualEager: pricing every candidate of an iterator set
// and building only the survivors changes no plan — over the
// equivalence corpus, the paper-schema statements and outer joins,
// chain and star joins of 2 to 8 ways with bushy trees and Cartesian
// products off and on, and the random and 3-way generators under
// merge-only and NL-only STAR arrays. A JOIN alternative that ignores
// the hint and ties a built-in one is settled in evaluation order.
func TestPricedPlansEqualEager(t *testing.T) {
	requireSamePlans(t, "equivalence corpus", equivDB(t), eagerJoins(equivDB(t)), equivalenceCorpus())
	paper := append(slices.Clip(paperSchemaStatements), paperSchemaOuterJoins...)
	requireSamePlans(t, "paper schema", paperSchemaDB(t), eagerJoins(paperSchemaDB(t)), paper)
	tied := tiedHashJoin(paperSchemaDB(t))
	requireSamePlans(t, "tied DBC join", tied, eagerJoins(tiedHashJoin(paperSchemaDB(t))), paper)
	for _, q := range paper {
		if text := planText(t, tied, q); strings.Contains(text, "TIED_HSJN") {
			t.Fatalf("the DBC copy of a hash join, evaluated after it, won the tie in %q:\n%s", q, text)
		}
	}

	for _, shape := range []struct {
		name string
		db   func(testing.TB, int) *DB
		q    func(int) string
	}{
		{"chain", chainDB, chainQuery},
		// fanDB/fanQuery count dimensions: an n-way star has n-1.
		{"star", func(t testing.TB, n int) *DB { return fanDB(t, n-1) }, func(n int) string { return fanQuery(n - 1) }},
	} {
		for n := 2; n <= 8; n++ {
			priced, eager := shape.db(t, n), eagerJoins(shape.db(t, n))
			q := shape.q(n)
			for _, mode := range []struct{ bushy, cartesian bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				qs := []string{q}
				if n <= 6 {
					qs = append(qs, q+" ORDER BY 1", "SELECT COUNT(*) "+q[strings.Index(q, " FROM "):])
				}
				if shape.name == "chain" && n == 8 && mode.bushy && (!mode.cartesian || raceEnabled) {
					// A bushy 8-clique takes a second to plan eagerly (20 s
					// under -race), and Cartesian products add no split to a
					// clique.
					continue
				}
				for _, db := range []*DB{priced, eager} {
					db.Optimizer().AllowBushy, db.Optimizer().AllowCartesian = mode.bushy, mode.cartesian
				}
				requireSamePlans(t, fmt.Sprintf("%s-%d bushy=%v cartesian=%v", shape.name, n, mode.bushy, mode.cartesian),
					priced, eager, qs)
			}
		}
	}

	gen, gen3 := &queryGen{rng: rand.New(rand.NewSource(61))}, &queryGen{rng: rand.New(rand.NewSource(62))}
	var qs []string
	for i := 0; i < 40; i++ {
		qs = append(qs, gen.query(), gen3.threeWayQuery())
	}
	qs = append(qs,
		"SELECT a.k, COUNT(*) FROM ta a, tb b, tc c WHERE a.v = b.k AND a.k = c.k GROUP BY a.k",
		"SELECT a.k, b.v FROM tb b, ta a WHERE a.v = b.k ORDER BY a.k, b.v")
	for _, keep := range []string{"MergeJoin", "NestedLoop"} {
		requireSamePlans(t, keep+" only", oneJoinMethodDB(t, keep), eagerJoins(oneJoinMethodDB(t, keep)), qs)
	}
}

// TestMergeGlueKeepsColumnLayout: the merge join's key slots are those
// of its reference inputs, so GLUE may only hand it a plan laid out the
// same way. With TB listed before TA, the set {TA, TB} holds plans in
// both layouts; an SMJN(TB, TA) ordered on slot 0 (b.k) once passed for
// a TA-first input ordered on a.k and the merge-only plan returned 104
// rows instead of 81.
func TestMergeGlueKeepsColumnLayout(t *testing.T) {
	const q = "SELECT a.k, b.v, c.k FROM tb b, ta a, tc c WHERE a.v = b.k AND a.k = c.k"
	merge, nl := oneJoinMethodDB(t, "MergeJoin"), oneJoinMethodDB(t, "NestedLoop")
	got, want := mustExec(t, merge, q), mustExec(t, nl, q)
	if canonical(got) != canonical(want) {
		t.Fatalf("merge-only plan returns %d rows, NL-only %d:\n%s", len(got.Rows), len(want.Rows), planText(t, merge, q))
	}
	if n := strings.Count(planText(t, merge, q), "SMJN"); n != 2 {
		t.Fatalf("want two merge joins, got %d:\n%s", n, planText(t, merge, q))
	}
}

// TestOrderModuloEqualities: the enumerator compares orders modulo the
// equalities an iterator set has applied. (a) Once a.k = b.k is applied,
// an SMJN(TC, TB) ordered on c.k is ordered on a.k, b.k and c.k, so the
// merge-only plan has no SORT above it: three SORTs where comparing
// slot by slot needed four. (b) a.k = b.k AND b.k = a.v AND a.v = c.k
// equates a.k and a.v, but not in every set that holds a: a merge join
// whose left input is ordered on a.k must not pass for one ordered on
// a.v before the set holds b or c; sortedAccess hands the enumerator
// such an input. The unit cases of the comparison are in
// internal/optimizer (TestEqualitiesOrderSatisfies).
func TestOrderModuloEqualities(t *testing.T) {
	const trap = "SELECT a.k, b.v, c.k FROM ta a, tb b, tc c WHERE a.k = b.k AND b.k = a.v AND a.v = c.k"
	merge, nl := oneJoinMethodDB(t, "MergeJoin"), oneJoinMethodDB(t, "NestedLoop")
	sorted := sortedAccess(oneJoinMethodDB(t, "MergeJoin"))
	for _, c := range []struct {
		db    *DB
		q     string
		sorts int
	}{
		{merge, "SELECT a.k, b.v, c.k FROM ta a, tb b, tc c WHERE a.k = b.k AND b.k = c.k", 3},
		{merge, trap, 3},
		{sorted, trap, 4}, // sortedAccess's SORT by k, and TA sorted again for a.v
	} {
		got, want := mustExec(t, c.db, c.q), mustExec(t, nl, c.q)
		text := planText(t, c.db, c.q)
		if canonical(got) != canonical(want) {
			t.Fatalf("%s: merge-only plan returns %d rows, NL-only %d:\n%s", c.q, len(got.Rows), len(want.Rows), text)
		}
		if n := strings.Count(text, "SMJN"); n != 2 {
			t.Fatalf("%s: want two merge joins, got %d:\n%s", c.q, n, text)
		}
		if n := strings.Count(text, "SORT "); n != c.sorts {
			t.Fatalf("%s: merge-only plan sorts %d times, want %d:\n%s", c.q, n, c.sorts, text)
		}
	}
}

// sortedAccess adds to db an ACCESS alternative that hands the
// enumerator TA's iterators sorted on k, for a little less than a scan
// of TA costs: a merge join then meets an input ordered on k alone.
func sortedAccess(db *DB) *DB {
	var scan *STARAlternative
	for _, s := range db.Optimizer().Generator().STARs() {
		for _, alt := range s.Alternatives {
			if s.Name == "ACCESS" && alt.Name == "TableScan" {
				scan = alt
			}
		}
	}
	db.AddSTARAlternative("ACCESS", &STARAlternative{
		Name: "SortedScan",
		Condition: func(ctx *OptCtx, a OptArgs) bool {
			return scan.Condition(ctx, a) && a.Quant.Input.Table.Name == "TA"
		},
		Build: func(ctx *OptCtx, a OptArgs) ([]*PlanNode, error) {
			plans, err := scan.Build(ctx, a)
			if err != nil || len(plans) != 1 {
				return nil, err
			}
			in := plans[0]
			props := in.Props
			props.Order, props.Cost = []plan.SortKey{{Slot: 0}}, props.Cost-0.01
			return []*PlanNode{{Op: plan.OpSort, Inputs: plans, Cols: in.Cols, Types: in.Types,
				SortKeys: props.Order, Props: props}}, nil
		},
	})
	return db
}

// TestJoinEnumeratorAllocs guards compile garbage: planning the 6-way
// chain (a 6-clique after implied equalities) allocates at most 295
// objects and 19 KiB. Building every JOIN and GLUE candidate took
// 32,470 objects; pricing them first, 7,668; comparing orders modulo
// each set's equalities and sorting an input once per key list, about
// 4,650; building only survivors, 2,305 (1,963 and 190 KiB measured
// before the next step); building them in the optimizer's reused
// scratch and copying out only the chosen plan, 266 and 17 KiB.
func TestJoinEnumeratorAllocs(t *testing.T) {
	db := chainDB(t, 6)
	stmt, err := sql.Parse(chainQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.TranslateStatement(db.Catalog(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	optimize := func() {
		if _, err := db.Optimizer().OptimizeConfig(g, nil, optimizer.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, optimize)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		optimize()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("6-way chain: %.0f allocations, %d bytes per OptimizeConfig", allocs, bytes)
	if allocs > 295 {
		t.Fatalf("planning the 6-way chain allocated %.0f objects, want <= 295", allocs)
	}
	if bytes > 19<<10 {
		t.Fatalf("planning the 6-way chain allocated %d bytes, want <= %d", bytes, 19<<10)
	}
}
